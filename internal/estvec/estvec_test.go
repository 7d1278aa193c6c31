package estvec

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetGetValue(t *testing.T) {
	v := New("s1")
	v.Set(TagFlops, 9e9).Set(TagPowerW, 200)
	if got, ok := v.Get(TagFlops); !ok || got != 9e9 {
		t.Fatalf("Get(flops) = %v,%v", got, ok)
	}
	if got := v.Value(TagPowerW, -1); got != 200 {
		t.Fatalf("Value(power) = %v", got)
	}
	if got := v.Value(TagWaitSec, 42); got != 42 {
		t.Fatalf("Value default = %v, want 42", got)
	}
	if !v.Has(TagFlops) || v.Has(TagWaitSec) {
		t.Fatal("Has wrong")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
}

func TestSetBoolAndBool(t *testing.T) {
	v := New("s")
	v.SetBool(TagActive, true).SetBool(TagKnown, false)
	if !v.Bool(TagActive) {
		t.Fatal("active should be true")
	}
	if v.Bool(TagKnown) {
		t.Fatal("known should be false")
	}
	if v.Bool(TagRandom) {
		t.Fatal("unset bool should be false")
	}
}

func TestZeroValueVectorUsable(t *testing.T) {
	var v Vector
	v.Set(TagFlops, 1)
	if got, ok := v.Get(TagFlops); !ok || got != 1 {
		t.Fatal("zero-value vector Set/Get failed")
	}
}

func TestNonFiniteRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Set(%v) did not panic", bad)
				}
			}()
			New("s").Set(TagFlops, bad)
		}()
	}
}

func TestTagsSortedAndString(t *testing.T) {
	v := New("s2").Set(TagPowerW, 100).Set(TagFlops, 2).Set(TagActive, 1)
	tags := v.Tags()
	if !sort.SliceIsSorted(tags, func(i, j int) bool { return tags[i] < tags[j] }) {
		t.Fatalf("Tags not sorted: %v", tags)
	}
	want := "s2{active=1,flops=2,power_w=100}"
	if got := v.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestByTagAscDesc(t *testing.T) {
	a := New("a").Set(TagPowerW, 100)
	b := New("b").Set(TagPowerW, 200)
	missing := New("m")
	asc := ByTagAsc(TagPowerW, nil)
	if !asc(a, b) || asc(b, a) {
		t.Fatal("asc ordering wrong")
	}
	if !asc(a, missing) || asc(missing, a) {
		t.Fatal("missing values must rank last (asc)")
	}
	desc := ByTagDesc(TagPowerW, nil)
	if !desc(b, a) || desc(a, b) {
		t.Fatal("desc ordering wrong")
	}
	if !desc(a, missing) || desc(missing, a) {
		t.Fatal("missing values must rank last (desc)")
	}
}

func TestTiebreakChaining(t *testing.T) {
	a := New("a").Set(TagPowerW, 100).Set(TagFlops, 1)
	b := New("b").Set(TagPowerW, 100).Set(TagFlops, 9)
	less := ByTagAsc(TagPowerW, ByTagDesc(TagFlops, ByServerName))
	if !less(b, a) {
		t.Fatal("tiebreak should fall through to flops desc")
	}
	c := New("c").Set(TagPowerW, 100).Set(TagFlops, 9)
	if !less(b, c) || less(c, b) {
		t.Fatal("final name tiebreak wrong")
	}
}

func TestSortStableKeepsEqualOrder(t *testing.T) {
	l := List{
		New("x").Set(TagPowerW, 1),
		New("y").Set(TagPowerW, 1),
		New("z").Set(TagPowerW, 0),
	}
	l.SortStable(ByTagAsc(TagPowerW, nil))
	want := []string{"z", "x", "y"}
	for i := range want {
		if l[i].Server != want[i] {
			t.Fatalf("order = %v, want %v", l, want)
		}
	}
}

// Property: sorting by any tag ascending yields a list whose tag
// values are non-decreasing among vectors that have the tag, with all
// missing-tag vectors at the tail.
func TestPropertySortByTag(t *testing.T) {
	f := func(vals []uint8, missingMask []bool) bool {
		var l List
		for i, val := range vals {
			v := New(string(rune('a' + i%26)))
			if i < len(missingMask) && missingMask[i] {
				// leave tag unset
			} else {
				v.Set(TagWaitSec, float64(val))
			}
			l = append(l, v)
		}
		l.SortStable(ByTagAsc(TagWaitSec, nil))
		seenMissing := false
		last := math.Inf(-1)
		for _, v := range l {
			val, ok := v.Get(TagWaitSec)
			if !ok {
				seenMissing = true
				continue
			}
			if seenMissing {
				return false // a present value after a missing one
			}
			if val < last {
				return false
			}
			last = val
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSortStable(b *testing.B) {
	base := make(List, 100)
	for i := range base {
		base[i] = New(string(rune('a'+i%26))).Set(TagPowerW, float64(i*7%53)).Set(TagFlops, float64(i))
	}
	less := ByTagAsc(TagPowerW, ByTagDesc(TagFlops, ByServerName))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := append(List(nil), base...)
		l.SortStable(less)
	}
}

// TestStdSlots: every standard tag resolves to its own stdTags index,
// sits in the array (not the extra map), and survives Set, Get, Has,
// Tags and a gob round trip; near-miss custom tags go to extra.
func TestStdSlots(t *testing.T) {
	for i, tag := range stdTags {
		if got, ok := stdSlot(tag); !ok || got != i {
			t.Errorf("stdSlot(%q) = %d,%v; want %d,true", tag, got, ok, i)
		}
		v := New("s").Set(tag, float64(i)+0.5)
		if v.mask != 1<<uint(i) || len(v.extra) != 0 || v.std[i] != float64(i)+0.5 {
			t.Errorf("Set(%q) stored mask %b extra %v, want slot %d", tag, v.mask, v.extra, i)
		}
		if got, ok := v.Get(tag); !ok || got != float64(i)+0.5 || !v.Has(tag) {
			t.Errorf("Get(%q) = %v,%v", tag, got, ok)
		}
		if tags := v.Tags(); len(tags) != 1 || tags[0] != tag {
			t.Errorf("Tags() = %v, want [%s]", tags, tag)
		}
		data, err := v.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var back Vector
		if err := back.GobDecode(data); err != nil {
			t.Fatal(err)
		}
		if back.mask != v.mask || back.std != v.std || len(back.extra) != 0 {
			t.Errorf("%q: gob round trip gave %v, want %v", tag, &back, v)
		}
	}
	for _, tag := range []Tag{"core", "flops_x", "Flops", "cores ", "", "renewable"} {
		if _, ok := stdSlot(tag); ok {
			t.Errorf("stdSlot(%q) claims a standard slot", tag)
		}
		v := New("s").Set(tag, 3)
		if v.mask != 0 || v.extra[tag] != 3 || v.Value(tag, 0) != 3 {
			t.Errorf("custom tag %q: mask %b extra %v, want it in extra", tag, v.mask, v.extra)
		}
	}
}

// BenchmarkVectorSetStd refills one vector with the standard tags the
// simulator's estimation function sets per SED per election.
func BenchmarkVectorSetStd(b *testing.B) {
	var v Vector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Reset("s")
		for j, tag := range stdTags {
			v.Set(tag, float64(j))
		}
		if v.Value(TagWaitSec, 0) != 5 {
			b.Fatal("wait_sec lost")
		}
	}
}
