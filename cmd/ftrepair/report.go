package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/verify"
)

// emitJSON writes the report as indented JSON on stdout and exits 1 when the
// result failed verification.
func emitJSON(r core.RunReport) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		fatal(err)
	}
	if r.Verified != nil && !*r.Verified {
		os.Exit(1)
	}
}

// printReport renders a run's report as text: the paper's table columns, the
// cost lines of a costed run, the verifier's checks and, with explain, the
// failure traces and recovery demonstrations. Local and -server runs both
// print through it.
func printReport(r core.RunReport, explain bool) {
	name := r.Model
	if r.Case != "" {
		name = fmt.Sprintf("%s (%s, n=%d)", r.Model, r.Case, r.N)
	}
	fmt.Printf("case study:        %s\n", name)
	fmt.Printf("algorithm:         %s\n", r.Algorithm)
	fmt.Printf("state space:       %.3g states (%d boolean bits)\n", r.States, r.StateBits)
	fmt.Printf("reachable states:  %.3g\n", r.ReachableStates)
	fmt.Printf("compile time:      %v\n", time.Duration(r.CompileNS))
	if r.TotalNS > 0 {
		fmt.Printf("repair time:       %v\n", time.Duration(r.TotalNS))
	}
	if r.Step1NS > 0 || r.Step2NS > 0 {
		fmt.Printf("  step 1:          %v\n", time.Duration(r.Step1NS))
		fmt.Printf("  step 2:          %v\n", time.Duration(r.Step2NS))
	}
	fmt.Printf("outer iterations:  %d\n", r.OuterIterations)
	fmt.Printf("invariant:         %.3g states\n", r.InvariantStates)
	fmt.Printf("fault-span:        %.3g states\n", r.FaultSpanStates)
	fmt.Printf("BDD nodes:         %d\n", r.BDDNodes)
	if r.Costed {
		fmt.Printf("achieved cost:     %.4g (weighted recovery transitions kept)\n", r.AchievedCost)
		fmt.Printf("cost removed:      %.4g (weighted original transitions deleted)\n", r.CostRemoved)
	}
	if r.Verified != nil {
		fmt.Printf("\nverification (%s backend):\n%s", r.Backend, &verify.Report{Checks: r.Checks})
		if st := r.SAT; st != nil {
			fmt.Printf("SAT solver:        %d conflicts, %d decisions, %d propagations, %d learned, max level %d\n",
				st.Conflicts, st.Decisions, st.Propagations, st.Learned, st.MaxLevel)
		}
	}
	if explain {
		for _, c := range r.Checks {
			if c.Witness != nil {
				fmt.Printf("\nwitness for failed check:\n%s", c.Witness)
			}
		}
		for _, tr := range r.Witnesses {
			fmt.Printf("\nrecovery demonstration:\n%s", tr)
		}
	}
}

// exitIfUnverified fails the command when the result did not verify.
func exitIfUnverified(r core.RunReport) {
	if r.Verified != nil && !*r.Verified {
		fatal(fmt.Errorf("verification failed: %v", (&verify.Report{Checks: r.Checks}).Failures()))
	}
}
