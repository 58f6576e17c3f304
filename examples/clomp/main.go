// CLOMP walkthrough (paper §V.B): the blame profile pins nearly all
// samples on partArray and its zoneArray[j].value field path, pointing at
// the nested-structure access pattern; the flat 2-D array rewrite wins by
// a size-dependent factor (paper Table V).
//
//	go run ./examples/clomp
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
	cfg := benchprog.CLOMPConfig{NumParts: 32, ZonesPerPart: 64, FlopScale: 1, TimeScale: 2}

	orig := benchprog.CLOMP(false).MustCompile(compile.Options{})
	bc := blame.DefaultConfig()
	bc.VM.Configs = cfg.Configs()
	bc.Threshold = 3001
	r, err := blame.Profile(orig.Prog, bc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== blame profile of CLOMP (paper Table IV) ===")
	fmt.Print(views.DataCentric(r.Profile, 10))
	fmt.Println()
	fmt.Println("the '->partArray[i].zoneArray[j].value' rows identify the")
	fmt.Println("nested-structure field doing all the work")

	// Size sweep (paper Table V shape: flat arrays win most where zones
	// per part dominate parts).
	fmt.Println("\n=== flat-array speedup across problem sizes (paper Table V) ===")
	opt := benchprog.CLOMP(true).MustCompile(compile.Options{})
	for i, size := range benchprog.CLOMPSizePoints {
		vmCfg := vm.DefaultConfig()
		vmCfg.Configs = size.Configs()
		so, err := vm.New(orig.Prog, vmCfg).Run()
		if err != nil {
			log.Fatal(err)
		}
		sp, err := vm.New(opt.Prog, vmCfg).Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s speedup %.2fx\n", benchprog.CLOMPSizeLabels[i],
			float64(so.WallCycles)/float64(sp.WallCycles))
	}
}
