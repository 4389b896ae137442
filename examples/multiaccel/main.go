// multiaccel demonstrates the multi-accelerator extension: the paper
// evaluates one Xeon Phi, but its motivation (Section II-A) covers nodes
// with several cards. This example tunes the human-genome workload on
// platforms with one, two and three Phis and shows how the optimal
// distribution and execution time scale.
package main

import (
	"fmt"
	"log"

	"hetopt"
)

func main() {
	workload := hetopt.GenomeWorkload(hetopt.Human)

	fmt.Println("tuning work distribution across host + N accelerators")
	fmt.Printf("workload: %s (%.0f MB)\n\n", workload.Name, workload.SizeMB)

	var oneCard float64
	for n := 1; n <= 3; n++ {
		problem, err := hetopt.MultiPhiProblem(n, workload)
		if err != nil {
			log.Fatal(err)
		}
		res, err := hetopt.TuneMulti(problem, nil, hetopt.SearchOptions{Budget: 3000, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		e := res.E()
		if n == 1 {
			oneCard = e
		}
		fmt.Printf("%d Phi card(s): E = %.4f s (%.2fx vs 1 card)\n", n, e, oneCard/e)
		fmt.Printf("  distribution: %s\n", problem.Platform.FormatSplit(res.Split))
		fmt.Printf("  energy: %.1f J\n", res.Joules())
		fmt.Printf("  per-unit times: host %.4f s", res.Times[0])
		for i, d := range res.Times[1:] {
			fmt.Printf(", %s %.4f s", problem.Platform.CardName(i), d)
		}
		fmt.Println()
		fmt.Println()
	}
	fmt.Println("Additional cards shift work off the host and shrink E with")
	fmt.Println("diminishing returns — offload latency and the host's share floor the time.")
}
