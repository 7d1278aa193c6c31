package consolidation

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"greensched/internal/estvec"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

func vec(name string, cores, free float64) *estvec.Vector {
	return estvec.New(name).
		Set(sched.TagCores(), cores).
		Set(estvec.TagFreeCores, free).
		SetBool(estvec.TagActive, true)
}

func TestPolicyConcentrates(t *testing.T) {
	p := Policy{}
	halfFull := vec("a", 4, 2)
	empty := vec("b", 4, 4)
	if !p.Less(halfFull, empty) {
		t.Error("a loaded node must rank before an empty one")
	}
	if p.Less(empty, halfFull) {
		t.Error("ordering must be asymmetric")
	}
}

func TestPolicyTightFitTieBreak(t *testing.T) {
	p := Policy{}
	small := vec("small", 3, 1) // busy 2, one slot left
	large := vec("large", 6, 4) // busy 2, four slots left
	if !p.Less(small, large) {
		t.Error("equal load: the tighter node must fill first")
	}
}

func TestPolicyNameTieBreakIsStable(t *testing.T) {
	p := Policy{}
	a := vec("alpha", 4, 2)
	b := vec("beta", 4, 2)
	if !p.Less(a, b) || p.Less(b, a) {
		t.Error("identical load/fit must order by name")
	}
}

func TestPolicyWithoutCapacityTag(t *testing.T) {
	p := Policy{}
	busy := estvec.New("busy").Set(estvec.TagFreeCores, 0)
	free := estvec.New("free").Set(estvec.TagFreeCores, 2)
	if !p.Less(busy, free) {
		t.Error("without a cores tag, an occupied node still concentrates first")
	}
}

func TestPolicyIsStrictWeakOrder(t *testing.T) {
	// quick property: irreflexive and asymmetric over random vectors.
	p := Policy{}
	f := func(c1, f1, c2, f2 uint8, swapName bool) bool {
		na, nb := "n1", "n2"
		if swapName {
			na, nb = nb, na
		}
		a := vec(na, float64(c1%32), math.Min(float64(f1%32), float64(c1%32)))
		b := vec(nb, float64(c2%32), math.Min(float64(f2%32), float64(c2%32)))
		if p.Less(a, a) || p.Less(b, b) {
			return false // reflexive
		}
		return !(p.Less(a, b) && p.Less(b, a)) // asymmetric
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGreenTieBreakPrefersEfficientNode(t *testing.T) {
	p := GreenTieBreak{}
	eff := vec("eff", 4, 2).Set(estvec.TagGreenPerf, 10).Set(estvec.TagFlops, 1e9)
	hog := vec("hog", 4, 2).Set(estvec.TagGreenPerf, 50).Set(estvec.TagFlops, 1e9)
	if !p.Less(eff, hog) {
		t.Error("equal load: lower power/performance ratio must win")
	}
	loaded := vec("loaded", 4, 1).Set(estvec.TagGreenPerf, 99)
	if !p.Less(loaded, eff) {
		t.Error("load still dominates the green tie-break")
	}
}

func TestControllerValidate(t *testing.T) {
	cases := []Controller{
		{IdleTimeout: 0, MinOn: 1},
		{IdleTimeout: -5, MinOn: 1},
		{IdleTimeout: 10, MinOn: 0},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error", i, c)
		}
	}
	ok := Controller{IdleTimeout: 10, MinOn: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid controller rejected: %v", err)
	}
}

// fakeControl scripts a platform for Tick unit tests.
type fakeControl struct {
	nodes    []sim.NodeView
	unplaced int
	ons      []string
	offs     []string

	// pendingSlack scripts PendingSlack; nil = no pending deadlines.
	pendingSlack *float64

	// atRisk scripts QueuedAtRisk per node; a successful Preempt
	// clears the node's entry.
	atRisk map[string]bool

	// running scripts Running per node; preempts records Preempt calls
	// as "node/taskID"; preemptErr, when set, refuses every Preempt.
	running    map[string][]sim.RunningView
	preempts   []string
	preemptErr error
}

func (f *fakeControl) Nodes() []sim.NodeView { return f.nodes }
func (f *fakeControl) Unplaced() int         { return f.unplaced }

func (f *fakeControl) QueuedAtRisk(name string) bool         { return f.atRisk[name] }
func (f *fakeControl) Running(name string) []sim.RunningView { return f.running[name] }

func (f *fakeControl) Preempt(name string, taskID int) error {
	if f.preemptErr != nil {
		return f.preemptErr
	}
	for i := range f.nodes {
		if f.nodes[i].Name == name {
			f.nodes[i].Running--
			delete(f.atRisk, name)
			f.preempts = append(f.preempts, fmt.Sprintf("%s/%d", name, taskID))
			return nil
		}
	}
	return fmt.Errorf("unknown %s", name)
}

func (f *fakeControl) PendingSlack() (float64, bool) {
	if f.pendingSlack == nil {
		return 0, false
	}
	return *f.pendingSlack, true
}

func (f *fakeControl) PowerOn(name string) error {
	for i := range f.nodes {
		if f.nodes[i].Name == name {
			f.nodes[i].State = power.Booting
			f.nodes[i].Candidate = true
			f.ons = append(f.ons, name)
			return nil
		}
	}
	return fmt.Errorf("unknown %s", name)
}

// Submit and EnergyJ complete sim.Control; the controllers under test
// neither feed work nor read energy.
func (f *fakeControl) Submit(workload.Task) error {
	return fmt.Errorf("fakeControl: Submit not scripted")
}
func (f *fakeControl) EnergyJ() float64 { return 0 }

func (f *fakeControl) SetCandidate(name string, candidate bool) error {
	for i := range f.nodes {
		if f.nodes[i].Name == name {
			f.nodes[i].Candidate = candidate
			return nil
		}
	}
	return fmt.Errorf("unknown %s", name)
}

func (f *fakeControl) PowerOff(name string) error {
	for i := range f.nodes {
		if f.nodes[i].Name == name {
			if f.nodes[i].Running > 0 || f.nodes[i].Queued > 0 {
				return fmt.Errorf("%s busy", name)
			}
			f.nodes[i].State = power.Off
			f.nodes[i].Candidate = false
			f.offs = append(f.offs, name)
			return nil
		}
	}
	return fmt.Errorf("unknown %s", name)
}

func onNode(name string, slots, running int, idle float64) sim.NodeView {
	return sim.NodeView{Name: name, State: power.On, Slots: slots,
		Running: running, Idle: idle, Candidate: true}
}

func offNode(name string, slots int) sim.NodeView {
	return sim.NodeView{Name: name, State: power.Off, Slots: slots}
}

func TestTickShutsDownIdleNodes(t *testing.T) {
	c := Controller{IdleTimeout: 100, MinOn: 1}
	ctl := &fakeControl{nodes: []sim.NodeView{
		onNode("a", 2, 1, 0),   // busy: stays
		onNode("b", 2, 0, 150), // idle past timeout: off
		onNode("c", 2, 0, 50),  // idle under timeout: stays
	}}
	c.Tick(0, ctl)
	if len(ctl.offs) != 1 || ctl.offs[0] != "b" {
		t.Errorf("offs = %v, want [b]", ctl.offs)
	}
	if len(ctl.ons) != 0 {
		t.Errorf("unexpected power-ons %v", ctl.ons)
	}
}

func TestTickRespectsMinOn(t *testing.T) {
	c := Controller{IdleTimeout: 100, MinOn: 2}
	ctl := &fakeControl{nodes: []sim.NodeView{
		onNode("a", 2, 0, 500),
		onNode("b", 2, 0, 500),
		onNode("c", 2, 0, 500),
	}}
	c.Tick(0, ctl)
	if len(ctl.offs) != 1 {
		t.Errorf("offs = %v, want exactly one (MinOn=2 of 3)", ctl.offs)
	}
}

func TestTickWakesForBacklog(t *testing.T) {
	c := Controller{IdleTimeout: 100, MinOn: 1}
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			onNode("a", 2, 2, 0), // saturated
			offNode("b", 2),
			offNode("c", 2),
			offNode("d", 2),
		},
		unplaced: 3,
	}
	c.Tick(0, ctl)
	// 3 unplaced need 2 nodes of 2 slots.
	if len(ctl.ons) != 2 {
		t.Errorf("ons = %v, want two wake-ups for 3 unplaced tasks", ctl.ons)
	}
}

func TestTickNoWakeWithoutBacklog(t *testing.T) {
	c := Controller{IdleTimeout: 100, MinOn: 1}
	ctl := &fakeControl{nodes: []sim.NodeView{
		onNode("a", 2, 1, 0),
		offNode("b", 2),
	}}
	c.Tick(0, ctl)
	if len(ctl.ons) != 0 {
		t.Errorf("nothing unplaced must wake no node, got %v", ctl.ons)
	}
}

func TestTickDoesNotRewakeForBootingCapacity(t *testing.T) {
	c := Controller{IdleTimeout: 100, MinOn: 1}
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			onNode("a", 2, 2, 0),
			{Name: "b", State: power.Booting, Slots: 2, Candidate: true},
			offNode("c", 2),
		},
		unplaced: 2,
	}
	c.Tick(0, ctl)
	if len(ctl.ons) != 0 {
		t.Errorf("booting capacity already covers the backlog; got wake-ups %v", ctl.ons)
	}
}

func TestTickNetsQueueAgainstFreeSlots(t *testing.T) {
	c := Controller{IdleTimeout: 100, MinOn: 1}
	ctl := &fakeControl{nodes: []sim.NodeView{
		{Name: "a", State: power.On, Slots: 2, Running: 2, Queued: 3, Candidate: true},
		{Name: "b", State: power.On, Slots: 4, Running: 0, Candidate: true, Idle: 10},
		offNode("c", 2),
	}}
	c.Tick(0, ctl)
	// Queue of 3 on a, but 4 free slots on b absorb future arrivals:
	// no wake needed.
	if len(ctl.ons) != 0 {
		t.Errorf("free capacity covers the queue; got wake-ups %v", ctl.ons)
	}
}

func TestTickDoesNotShutDownBootingNodes(t *testing.T) {
	c := Controller{IdleTimeout: 1, MinOn: 1}
	ctl := &fakeControl{nodes: []sim.NodeView{
		onNode("a", 2, 1, 0),
		{Name: "b", State: power.Booting, Slots: 2, Candidate: true, Idle: 999},
	}}
	c.Tick(0, ctl)
	if len(ctl.offs) != 0 {
		t.Errorf("booting node must not be shut down, got %v", ctl.offs)
	}
}
