package powerd

import (
	"encoding/json"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"greensched/internal/power"
)

// The protocol-level fault suite: every way a sidecar can misbehave on
// the wire — absent at boot, killed mid-run, hung, malformed JSON,
// short read, wrong-version reply — must degrade to the analytic
// fallback (loudly: counters plus a one-shot log) and converge back to
// live readings after the sidecar returns. The middleware-level
// counterpart (elections continuing on fallback curves over both
// middleware transports) lives in internal/middleware.

// faultListener serves one connection handler per accept on either
// socket family; handler runs until it returns or the test closes.
func faultListener(t *testing.T, addr string, handler func(net.Conn)) (dialAddr string, closeFn func()) {
	t.Helper()
	network, address := SplitAddr(addr)
	ln, err := net.Listen(network, address)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				handler(conn)
			}()
		}
	}()
	dialAddr = ln.Addr().String()
	if network == "unix" {
		dialAddr = "unix:" + dialAddr
	}
	return dialAddr, func() { close(done); ln.Close() }
}

// faultClient builds the client under test: tight timeouts, no retry
// (each call is one observable attempt), a two-failure breaker, a fast
// background probe and counting logs.
func faultClient(t *testing.T, addr string, fallbackW float64, warns, recovers *atomic.Int64) *Client {
	t.Helper()
	cli, err := NewClient(Config{
		Addr: addr, Timeout: 80 * time.Millisecond, Retries: -1,
		StalenessSec: 0.001, BreakerAfter: 2, ReprobeSec: 0.02,
		Fallback: power.StaticSource{"node": fallbackW},
		Logf: func(format string, args ...any) {
			switch {
			case strings.Contains(format, "falling back"):
				warns.Add(1)
			case strings.Contains(format, "recovered"):
				recovers.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// mustFallback asserts n consecutive readings all serve the analytic
// fallback value — the scheduler's view never goes blind.
func mustFallback(t *testing.T, cli *Client, want float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, ok := cli.NodePowerW("node", nil, nil)
		if !ok || w != want {
			t.Fatalf("reading %d: got %v, %v; want fallback %v", i, w, ok, want)
		}
	}
}

// awaitLive polls until the client serves the sidecar's value again.
func awaitLive(t *testing.T, cli *Client, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w, ok := cli.NodePowerW("node", nil, nil); ok && w == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("client never converged back to the sidecar reading %v (stats %+v)", want, cli.Stats())
}

// TestFaultAbsentAtBootThenRecovery: no sidecar at client boot — every
// reading must come from the fallback curves with exactly one warning;
// once the sidecar appears at that address the background probe closes
// the breaker and live readings resume.
func TestFaultAbsentAtBootThenRecovery(t *testing.T) {
	bothNetworks(t, func(t *testing.T, addr string) {
		var warns, recovers atomic.Int64
		var dialAddr string
		if strings.HasPrefix(addr, "unix:") {
			dialAddr = addr
		} else {
			// Reserve a concrete TCP port, then free it: absent at
			// boot, reusable for the late-started sidecar.
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			dialAddr = ln.Addr().String()
			ln.Close()
		}
		cli := faultClient(t, dialAddr, 77, &warns, &recovers)
		mustFallback(t, cli, 77, 5)
		st := cli.Stats()
		if st.Fallbacks < 5 || st.Errors < 2 || !st.BreakerOpen {
			t.Fatalf("stats %+v: want fallbacks, errors and an open breaker", st)
		}
		if warns.Load() != 1 {
			t.Fatalf("fallback warned %d times, want exactly 1 (loud, not noisy)", warns.Load())
		}

		srv, err := Serve(dialAddr, power.StaticSource{"node": 150}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		awaitLive(t, cli, 150)
		if recovers.Load() < 1 {
			t.Error("recovery was silent")
		}
		if cli.Stats().BreakerOpen {
			t.Error("breaker still open after recovery")
		}
	})
}

// TestFaultKilledMidRunThenRestart: live readings, then the sidecar
// dies; readings continue from the fallback; a restarted sidecar at
// the same address brings fresh readings back within the staleness
// window.
func TestFaultKilledMidRunThenRestart(t *testing.T) {
	bothNetworks(t, func(t *testing.T, addr string) {
		var warns, recovers atomic.Int64
		srv, err := Serve(addr, power.StaticSource{"node": 150}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dialAddr := srv.Addr()
		cli := faultClient(t, dialAddr, 77, &warns, &recovers)
		if w, ok := cli.NodePowerW("node", nil, nil); !ok || w != 150 {
			t.Fatalf("live reading %v, %v", w, ok)
		}

		srv.Close() // kill -9
		// Let the 1ms staleness window of the test client lapse so the
		// readings below provably come from the fallback curves, not
		// the last-good cache.
		time.Sleep(10 * time.Millisecond)
		mustFallback(t, cli, 77, 4)
		if warns.Load() != 1 {
			t.Fatalf("fallback warned %d times, want exactly 1", warns.Load())
		}
		if cli.Stats().Fallbacks < 1 {
			t.Fatalf("stats %+v", cli.Stats())
		}

		srv2, err := Serve(dialAddr, power.StaticSource{"node": 151}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv2.Close()
		awaitLive(t, cli, 151)
		if _, age, ok := cli.LastReading("node"); !ok || age > 5 {
			t.Errorf("reading not fresh after restart: age %v, ok %v", age, ok)
		}
		if recovers.Load() < 1 {
			t.Error("recovery was silent")
		}
	})
}

// TestFaultHungSidecar: the sidecar accepts and never answers — the
// request timeout must cut each attempt and the breaker must stop the
// bleeding.
func TestFaultHungSidecar(t *testing.T) {
	bothNetworks(t, func(t *testing.T, addr string) {
		hold := make(chan struct{})
		defer close(hold)
		dialAddr, stop := faultListener(t, addr, func(conn net.Conn) {
			buf := make([]byte, 256)
			conn.Read(buf)
			<-hold // never reply
		})
		defer stop()
		var warns, recovers atomic.Int64
		cli := faultClient(t, dialAddr, 77, &warns, &recovers)
		start := time.Now()
		mustFallback(t, cli, 77, 4)
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("4 readings against a hung sidecar took %v — timeout not enforced", elapsed)
		}
		st := cli.Stats()
		if st.Errors < 2 || !st.BreakerOpen {
			t.Fatalf("stats %+v: want timeout errors and an open breaker", st)
		}
	})
}

// TestFaultMalformedJSON: the sidecar answers garbage — the client
// must drop the desynchronized connection and fall back.
func TestFaultMalformedJSON(t *testing.T) {
	bothNetworks(t, func(t *testing.T, addr string) {
		dialAddr, stop := faultListener(t, addr, func(conn net.Conn) {
			buf := make([]byte, 256)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
				if _, err := conn.Write([]byte("{this is not json\n")); err != nil {
					return
				}
			}
		})
		defer stop()
		var warns, recovers atomic.Int64
		cli := faultClient(t, dialAddr, 77, &warns, &recovers)
		mustFallback(t, cli, 77, 4)
		if st := cli.Stats(); st.Errors < 2 {
			t.Fatalf("stats %+v", st)
		}
		if warns.Load() != 1 {
			t.Fatalf("warned %d times", warns.Load())
		}
	})
}

// TestFaultShortRead: the sidecar dies mid-line — half a reply is a
// transport error, not a parsed zero.
func TestFaultShortRead(t *testing.T) {
	bothNetworks(t, func(t *testing.T, addr string) {
		dialAddr, stop := faultListener(t, addr, func(conn net.Conn) {
			buf := make([]byte, 256)
			conn.Read(buf)
			conn.Write([]byte(`{"v":1,"watts":15`)) // no newline, then close
		})
		defer stop()
		var warns, recovers atomic.Int64
		cli := faultClient(t, dialAddr, 77, &warns, &recovers)
		mustFallback(t, cli, 77, 4)
		if st := cli.Stats(); st.Errors < 2 {
			t.Fatalf("stats %+v", st)
		}
	})
}

// TestFaultWrongVersionReply: a future (or ancient) sidecar — the
// client must refuse to guess across versions and fall back.
func TestFaultWrongVersionReply(t *testing.T) {
	bothNetworks(t, func(t *testing.T, addr string) {
		dialAddr, stop := faultListener(t, addr, func(conn net.Conn) {
			buf := make([]byte, 256)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
				line, _ := json.Marshal(PowerResponse{V: 99, Watts: 1234, Model: "future"})
				if _, err := conn.Write(append(line, '\n')); err != nil {
					return
				}
			}
		})
		defer stop()
		var warns, recovers atomic.Int64
		cli := faultClient(t, dialAddr, 77, &warns, &recovers)
		mustFallback(t, cli, 77, 4)
		st := cli.Stats()
		if st.Errors < 2 || !st.BreakerOpen {
			t.Fatalf("stats %+v: wrong-version replies must count as failures", st)
		}
	})
}

// TestFaultNegativeReading: a sidecar that answers a negative reading
// sends a malformed reply. The client counts it as a failure, never
// caches it and falls back; served, -120 W would rank its node the
// greenest and book negative joules.
func TestFaultNegativeReading(t *testing.T) {
	bothNetworks(t, func(t *testing.T, addr string) {
		dialAddr, stop := faultListener(t, addr, func(conn net.Conn) {
			buf := make([]byte, 256)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
				if _, err := conn.Write([]byte(`{"v":1,"watts":-120}` + "\n")); err != nil {
					return
				}
			}
		})
		defer stop()
		var warns, recovers atomic.Int64
		cli := faultClient(t, dialAddr, 77, &warns, &recovers)
		mustFallback(t, cli, 77, 4)
		if st := cli.Stats(); st.Errors < 2 || !st.BreakerOpen {
			t.Fatalf("stats %+v: negative readings must count as failures", st)
		}
		if w, _, ok := cli.LastReading("node"); ok {
			t.Fatalf("cached the negative reading %v", w)
		}
	})
}
