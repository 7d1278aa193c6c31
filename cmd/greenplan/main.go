// Command greenplan manipulates provisioning-planning documents — the
// shared XML file of §IV-C (Figure 8) that the Master Agent polls for
// temperature, electricity cost and candidate counts:
//
//	greenplan new -out plan.xml [-days N] [-temp T]   materialize a plan from the daily tariff
//	greenplan show plan.xml [-nodes N] [-min M]       print records with rule decisions
//	greenplan validate plan.xml                       structural checks; exit 1 on problems
//	greenplan decide -cost C -temp T [-nodes N]       one-off administrator-rule decision
//
// The administrator rules are the paper's §IV-C behaviours (heat →
// 20 %, regular cost → 40 %, off-peak-1 → 70 %, off-peak-2 → 100 %).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"greensched/internal/forecast"
	"greensched/internal/provision"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "new":
		err = runNew(os.Args[2:])
	case "show":
		err = runShow(os.Args[2:])
	case "validate":
		err = runValidate(os.Args[2:])
	case "decide":
		err = runDecide(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "greenplan: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case err == errUsage:
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "greenplan: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a bad flag, which the flag set has already printed.
var errUsage = errors.New("usage")

// newFlagSet returns a subcommand's flag set: a bad flag is printed to
// the usage writer and comes back from parse as errUsage.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// parse parses a subcommand's flags; -h comes back as flag.ErrHelp.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

func runNew(args []string) error {
	fs := newFlagSet("new")
	out := fs.String("out", "", "output plan file (default stdout)")
	days := fs.Int("days", 1, "horizon in days")
	temp := fs.Float64("temp", 22.0, "temperature written into every record (°C)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *days < 1 {
		return fmt.Errorf("new: -days %d must be at least 1", *days)
	}
	records, err := forecast.PaperTariff().PlanRecords(0, float64(*days)*24*3600, *temp)
	if err != nil {
		return err
	}
	store := provision.NewStore()
	for _, r := range records {
		store.Put(r)
	}
	if *out == "" {
		data, err := store.Snapshot().MarshalIndent()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if err := store.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d records covering %d day(s) to %s\n", store.Len(), *days, *out)
	return nil
}

func loadPlanArg(fs *flag.FlagSet, args []string) (*provision.Plan, error) {
	if err := parse(fs, args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("%s: want exactly one plan file argument", fs.Name())
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	return provision.ParsePlan(data)
}

func runShow(args []string) error {
	fs := newFlagSet("show")
	nodes := fs.Int("nodes", 12, "platform size for rule decisions")
	min := fs.Int("min", 1, "minimum candidate floor")
	plan, err := loadPlanArg(fs, args)
	if err != nil {
		return err
	}
	rules := provision.DefaultRules()
	fmt.Printf("%-12s %-6s %-6s %-10s %-12s %-10s %s\n",
		"timestamp", "temp", "cost", "candidates", "rule", "quota", "kind")
	for _, r := range plan.Records {
		st := provision.Status{Temperature: r.Temperature, Cost: r.Cost}
		kind := "scheduled"
		if r.Unexpected {
			kind = "unexpected"
		}
		fmt.Printf("%-12d %-6.1f %-6.2f %-10d %-12s %-10d %s\n",
			r.Value, r.Temperature, r.Cost, r.Candidates,
			rules.Match(st), rules.Quota(st, *nodes, *min), kind)
	}
	return nil
}

func runValidate(args []string) error {
	fs := newFlagSet("validate")
	plan, err := loadPlanArg(fs, args)
	if err != nil {
		return err
	}
	problems := Lint(plan)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s)", len(problems))
	}
	fmt.Printf("plan OK: %d records\n", len(plan.Records))
	return nil
}

// Lint reports structural problems in a plan document: unordered or
// duplicate timestamps, costs outside [0,1], negative candidate
// counts, implausible temperatures.
func Lint(plan *provision.Plan) []string {
	var out []string
	seen := make(map[int64]bool)
	lastT := int64(-1 << 62)
	for i, r := range plan.Records {
		at := func(msg string, args ...any) {
			out = append(out, fmt.Sprintf("record %d (t=%d): %s", i, r.Value, fmt.Sprintf(msg, args...)))
		}
		if seen[r.Value] {
			at("duplicate timestamp")
		}
		seen[r.Value] = true
		if r.Value < lastT {
			at("timestamps not ascending")
		}
		lastT = r.Value
		if r.Cost < 0 || r.Cost > 1 {
			at("cost %.3f outside [0,1]", r.Cost)
		}
		if r.Candidates < 0 {
			at("negative candidate count %d", r.Candidates)
		}
		if r.Temperature < -60 || r.Temperature > 80 {
			at("implausible temperature %.1f °C", r.Temperature)
		}
	}
	if len(plan.Records) == 0 {
		out = append(out, "plan has no records")
	}
	return out
}

func runDecide(args []string) error {
	fs := newFlagSet("decide")
	cost := fs.Float64("cost", 1.0, "electricity cost ratio in [0,1]")
	temp := fs.Float64("temp", 22.0, "temperature (°C)")
	nodes := fs.Int("nodes", 12, "platform size")
	min := fs.Int("min", 1, "minimum candidate floor")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *cost < 0 || *cost > 1 {
		return fmt.Errorf("decide: -cost %v outside [0,1]", *cost)
	}
	rules := provision.DefaultRules()
	st := provision.Status{Temperature: *temp, Cost: *cost}
	name := rules.Match(st)
	if name == "" {
		name = "(fail-open: all nodes)"
	}
	fmt.Printf("rule: %s\ncandidates: %d of %d\n", name, rules.Quota(st, *nodes, *min), *nodes)
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: greenplan <command> [flags]

commands:
  new       materialize a plan from the paper's daily tariff (-days N -out F)
  show      print a plan with §IV-C rule decisions (-nodes N -min M)
  validate  structural checks; exit 1 on problems
  decide    one-off rule decision (-cost C -temp T -nodes N)
`)
}
