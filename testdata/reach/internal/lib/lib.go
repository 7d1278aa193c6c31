// Package lib plants a case of each liveness rule of the reachability
// gate. Every declaration the gate must flag says so in a comment on
// its line, and ../../dead.txt lists it; every other one must pass.
package lib

// Rule (a): reached code selects Finder.Find. Other.Find stays dead,
// though the two share a name.
type Finder struct{}

func (Finder) Find() int { return 1 }

type Other struct{}

func (Other) Find() int { return 2 } // dead: same name as a live method

func Unused() {} // dead: no root calls it

// Rule (b), a module interface: Square converts to Shape and reached
// code calls Shape.Area. Circle never converts to an interface.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side } // dead: Shape has no Perimeter

type Circle struct{ R float64 }

func (c Circle) Area() float64 { return 3 * c.R * c.R } // dead: Circle never converts to Shape

// Rule (b), interfaces the standard library calls: error, fmt.Stringer
// and sort.Interface. Quiet never converts to an interface.
type Failure struct{}

func (Failure) Error() string { return "failure" }

type Label string

func (l Label) String() string { return string(l) }

type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

type Quiet struct{}

func (Quiet) String() string { return "quiet" } // dead: Quiet is never printed

// Rule (c): an exported field lives only where reached code writes it,
// through a keyed or unkeyed composite literal, an assignment, ++ or &.
type Config struct {
	Keyed    int
	Assigned int
	Bumped   int
	Pointed  int
	ReadOnly int // dead: read, never written
	TestOnly int // dead: only lib_test.go writes it
}

type Pair struct{ Key, Value string }
