package netsim_test

import (
	"fmt"
	"log"

	"pvr/internal/netsim"
)

// ExampleRunFig1 demonstrates the §2.3 properties end to end. The same
// Fig. 1 scenario runs four times — honest, suppressing, exporting the
// wrong route, and equivocating — and the output shows who detects each
// misbehaviour, and that every detection carries evidence a third-party
// judge convicts on, while the honest run stays clean.
func ExampleRunFig1() {
	cases := []struct {
		fault netsim.Fault
		story string
	}{
		{netsim.FaultNone, "honest A: commits true bits, exports the shortest route"},
		{netsim.FaultSuppress, "A hides all routes: commits an all-zero vector, exports nothing"},
		{netsim.FaultWrongExport, "A steers traffic: commits honest bits but exports the longest route"},
		{netsim.FaultEquivocate, "A lies selectively: honest commitment to providers, zero vector to B"},
	}
	for _, c := range cases {
		cfg := netsim.Fig1Config{K: 4, MaxLen: 16, Fault: c.fault, Seed: 7}
		if c.fault == netsim.FaultWrongExport {
			cfg.Providers = []int{6, 2, 9, 4} // distinct lengths: the lie is real
		}
		res, err := netsim.RunFig1(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fault=%s: %s\n", c.fault, c.story)
		if res.Exported != nil {
			fmt.Printf("  B received     : %d-hop route\n", res.Exported.PathLen())
		} else {
			fmt.Printf("  B received     : nothing\n")
		}
		if res.Detected {
			fmt.Printf("  detection      : caught by %v\n", res.DetectedBy)
			fmt.Printf("  evidence       : %d accusation(s) upheld by the judge\n", res.GuiltyVerdicts)
		} else {
			fmt.Printf("  detection      : no violation observed\n")
		}
		fmt.Printf("  false verdicts : %d\n", res.FalseAccusations)
	}
	// Output:
	// fault=none: honest A: commits true bits, exports the shortest route
	//   B received     : 15-hop route
	//   detection      : no violation observed
	//   false verdicts : 0
	// fault=suppress: A hides all routes: commits an all-zero vector, exports nothing
	//   B received     : nothing
	//   detection      : caught by [AS101 AS102 AS103 AS104]
	//   evidence       : 4 accusation(s) upheld by the judge
	//   false verdicts : 0
	// fault=wrong-export: A steers traffic: commits honest bits but exports the longest route
	//   B received     : 10-hop route
	//   detection      : caught by [AS200]
	//   evidence       : 1 accusation(s) upheld by the judge
	//   false verdicts : 0
	// fault=equivocate: A lies selectively: honest commitment to providers, zero vector to B
	//   B received     : nothing
	//   detection      : caught by [AS101 AS102 AS103 AS104]
	//   evidence       : 8 accusation(s) upheld by the judge
	//   false verdicts : 0
}
