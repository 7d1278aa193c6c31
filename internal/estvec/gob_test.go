package estvec

import (
	"bytes"
	"encoding/gob"
	"sync"
	"testing"
)

func sampleVector() *Vector {
	return New("s1").Set(TagFlops, 9e9).Set(TagPowerW, 222).Set(Tag("custom"), 7)
}

func sameVector(t *testing.T, got, want *Vector) {
	t.Helper()
	if got.Server != want.Server || got.String() != want.String() {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

// TestGobWireUnchanged: the pooled codec must write exactly the stream
// a fresh encoder writes, and read the one a fresh encoder wrote.
func TestGobWireUnchanged(t *testing.T) {
	v := sampleVector()
	data, err := v.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var w wireVector
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		t.Fatalf("a plain decoder cannot read GobEncode's bytes: %v", err)
	}
	if w.Server != "s1" || len(w.Vals) != 3 || w.Vals[TagPowerW] != 222 || w.Vals["custom"] != 7 {
		t.Fatalf("plain decode = %+v", w)
	}

	var plain bytes.Buffer
	if err := gob.NewEncoder(&plain).Encode(w); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(plain.Bytes(), wirePrefix) {
		t.Fatal("a fresh encoder's stream does not start with wirePrefix")
	}
	var back Vector
	if err := back.GobDecode(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	sameVector(t, &back, v)
}

// TestGobDecodeForeignDescriptors: a peer that numbered its types
// differently sends other descriptor bytes; they still decode.
func TestGobDecodeForeignDescriptors(t *testing.T) {
	type foreignVector struct {
		Server string
		Vals   map[Tag]float64
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(foreignVector{Server: "s1", Vals: map[Tag]float64{TagFlops: 9e9, TagPowerW: 222, "custom": 7}}); err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(buf.Bytes(), wirePrefix) {
		t.Fatal("foreign stream unexpectedly shares the prefix; the test proves nothing")
	}
	var back Vector
	if err := back.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	sameVector(t, &back, sampleVector())
}

// TestGobDecodeErrorsDoNotPoisonThePool: a damaged value message fails
// its own decode and nothing after it.
func TestGobDecodeErrorsDoNotPoisonThePool(t *testing.T) {
	good, err := sampleVector().GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		good[:len(good)-3], // torn value
		append(append([]byte{}, wirePrefix...), 0xff),   // garbage after the descriptors
		append(append([]byte{}, good...), good[5:9]...), // trailing bytes are ignored, as before
		wirePrefix,
	} {
		var v Vector
		decodeErr := v.GobDecode(bad)
		if len(bad) > len(good) {
			if decodeErr != nil {
				t.Fatalf("trailing bytes: %v", decodeErr)
			}
		} else if decodeErr == nil {
			t.Fatalf("damaged stream (%d bytes) decoded", len(bad))
		}
		var back Vector
		if err := back.GobDecode(good); err != nil {
			t.Fatalf("good stream after a damaged one: %v", err)
		}
		sameVector(t, &back, sampleVector())
	}
}

func TestGobConcurrentRoundTrips(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := New("s").Set(TagQueueLen, float64(g))
			for i := 0; i < 200; i++ {
				data, err := want.GobEncode()
				if err != nil {
					t.Error(err)
					return
				}
				var back Vector
				if err := back.GobDecode(data); err != nil || back.Value(TagQueueLen, -1) != float64(g) {
					t.Errorf("goroutine %d: %v, %v", g, back.String(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkGobRoundTrip(b *testing.B) {
	v := sampleVector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := v.GobEncode()
		if err != nil {
			b.Fatal(err)
		}
		var back Vector
		if err := back.GobDecode(data); err != nil {
			b.Fatal(err)
		}
	}
}
