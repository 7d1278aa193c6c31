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

func TestClone(t *testing.T) {
	v := New("s").Set(TagFlops, 1)
	c := v.Clone()
	c.Set(TagFlops, 2)
	if got := v.Value(TagFlops, 0); got != 1 {
		t.Fatal("Clone is not deep")
	}
	if c.Server != "s" {
		t.Fatal("Clone lost server name")
	}
}

func TestListHelpers(t *testing.T) {
	l := List{New("a"), New("b"), New("c")}
	if l.Find("b") == nil || l.Find("z") != nil {
		t.Fatal("Find wrong")
	}
	c := l.Clone()
	c[0].Set(TagFlops, 5)
	if l[0].Has(TagFlops) {
		t.Fatal("List.Clone is not deep")
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
		l := base.Clone()
		l.SortStable(less)
	}
}
