// Carbon walkthrough: the grid behind the socket as a scheduling
// signal. It builds diurnal and tariff-derived carbon signals, shows
// how the same joule costs different grams across sites and hours,
// ranks servers with the GREENPERF and CARBON policies, and runs the
// carbon-blind vs carbon-aware comparison on a one-day scenario.
package main

import (
	"fmt"
	"os"

	"greensched/internal/carbon"
	"greensched/internal/estvec"
	"greensched/internal/experiments"
	"greensched/internal/forecast"
	"greensched/internal/sched"
)

// sed builds the estimation vector a SED on a grid of gPerKWh reports.
func sed(name string, flops, watts, gPerKWh float64) *estvec.Vector {
	return estvec.New(name).
		Set(estvec.TagFlops, flops).
		Set(estvec.TagPowerW, watts).
		Set(estvec.TagGreenPerf, watts/flops).
		Set(estvec.TagCarbonIntensity, gPerKWh)
}

func main() {
	// A solar-dominated grid: cleanest at 13:00, dirtiest overnight.
	solar := carbon.Diurnal{
		MeanG: 300, AmplitudeG: 250, CleanHour: 13,
		RenewableMin: 0.05, RenewableMax: 0.8,
	}
	fmt.Println("Diurnal grid (gCO2/kWh by hour):")
	for h := 0; h < 24; h += 3 {
		t := float64(h) * 3600
		fmt.Printf("  %02d:00  %3.0f g/kWh  (renewables %2.0f%%)\n",
			h, solar.IntensityAt(t), solar.RenewableAt(t)*100)
	}

	// The §IV-C electricity tariff doubles as a coarse carbon signal.
	steps, err := carbon.FromTariff(forecast.PaperTariff(), 100, 500)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nTariff-derived step schedule:")
	for _, h := range []float64{4, 12, 23} {
		fmt.Printf("  %02.0f:00  %3.0f g/kWh\n", h, steps.IntensityAt(h*3600))
	}

	// One kWh is not one footprint: integrate 1000 W for an hour at
	// midday vs midnight.
	site := carbon.SiteProfile{Site: "solar-valley", Signal: solar}
	midday := carbon.Grams(site, carbon.JoulesPerKWh, 12.5*3600, 13.5*3600)
	midnight := carbon.Grams(site, carbon.JoulesPerKWh, 23.5*3600, 24.5*3600)
	fmt.Printf("\n1 kWh drawn at midday: %.0f g CO2; the same kWh at midnight: %.0f g\n",
		midday, midnight)

	// Carbon-aware ranking: a hungrier server on a cleaner grid can
	// beat the GreenPerf favourite.
	servers := estvec.List{
		sed("lean-dirty", 5e9, 200, 500),
		sed("hungry-clean", 5e9, 300, 50),
	}
	fmt.Println("\nGREENPERF vs CARBON ordering:")
	for _, p := range []sched.Policy{sched.New(sched.GreenPerf), sched.New(sched.Carbon)} {
		servers.SortStable(p.Less)
		fmt.Printf("  by %-10s %s first\n", p.Name()+":", servers[0].Server)
	}

	// The full study on a small one-day scenario: an evening batch
	// either runs immediately (carbon-blind) or waits for the next
	// clean window (carbon-aware candidacy windows).
	cfg := experiments.DefaultCarbonConfig()
	cfg.Days = 1
	cfg.BurstTasks = 24
	res, err := experiments.RunCarbonStudy(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println()
	if err := res.Render(os.Stdout); err != nil {
		panic(err)
	}
}
