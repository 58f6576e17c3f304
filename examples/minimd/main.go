// MiniMD walkthrough: reproduce the paper's §V.A workflow — profile the
// original benchmark, read the blamed variables (Pos, Bins, RealPos,
// Count, binSpace), apply the zippered-iteration/domain-remapping
// rewrite, and measure the speedup.
//
//	go run ./examples/minimd
package main

import (
	"fmt"
	"log"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/views"
	"repro/internal/vm"
)

func main() {
	cfgs := benchprog.DefaultMiniMD.Configs()

	// 1. Profile the original.
	orig := benchprog.MiniMD(false).MustCompile(compile.Options{})
	bc := blame.DefaultConfig()
	bc.VM.Configs = cfgs
	bc.Threshold = 4099
	r, err := blame.Profile(orig.Prog, bc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== blame profile of the original MiniMD (paper Table II) ===")
	fmt.Print(views.DataCentric(r.Profile, 8))

	// 2. The top-blamed variables (Pos, Bins) point at the forall loops
	//    with zippered iteration and domain remapping. Apply the rewrite
	//    and time both versions (paper Table III).
	vmCfg := vm.DefaultConfig()
	vmCfg.Configs = cfgs
	so, err := vm.New(orig.Prog, vmCfg).Run()
	if err != nil {
		log.Fatal(err)
	}
	opt := benchprog.MiniMD(true).MustCompile(compile.Options{})
	sp, err := vm.New(opt.Prog, vmCfg).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noriginal:  %.6f s (simulated)\n", so.Seconds())
	fmt.Printf("optimized: %.6f s (simulated)\n", sp.Seconds())
	fmt.Printf("speedup:   %.2fx (paper: 2.26x on its testbed)\n",
		float64(so.WallCycles)/float64(sp.WallCycles))
}
