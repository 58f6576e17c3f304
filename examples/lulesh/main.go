// LULESH walkthrough (paper §V.C): the code-centric view is dominated by
// runtime frames (Fig. 4) while the blame view names hgfx/hourgam/determ
// — which lead to the three optimizations (P1 param tuning, Variable
// Globalization, the CalcElemNodeNormals rewrite).
//
//	go run ./examples/lulesh
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
	cfgs := benchprog.DefaultLulesh.Configs()

	orig := benchprog.LULESH(benchprog.LuleshOriginal).MustCompile(compile.Options{})
	bc := blame.DefaultConfig()
	bc.VM.Configs = cfgs
	bc.Threshold = 4099
	r, err := blame.Profile(orig.Prog, bc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== what a code-centric profiler shows (paper Fig. 4) ===")
	fmt.Print(views.CodeCentric(r.Profile, 8))
	fmt.Println("\n(the top entries are runtime/outlined functions a user cannot act on)")

	fmt.Println("\n=== what the blame profiler shows (paper Table VI) ===")
	fmt.Print(views.DataCentric(r.Profile, 12))

	fmt.Println("\n=== applying the three optimizations (paper Table IX) ===")
	variants := []struct {
		label string
		v     benchprog.LuleshVariant
	}{
		{"P 1 (param tuning)", benchprog.LuleshVariant{P1: true}},
		{"VG (variable globalization)", benchprog.LuleshVariant{P1: true, P2: true, P3: true, VG: true}},
		{"CENN (direct tuple assignment)", benchprog.LuleshVariant{P1: true, P2: true, P3: true, CENN: true}},
		{"Best (P1+VG+CENN)", benchprog.LuleshBest},
	}
	vmCfg := vm.DefaultConfig()
	vmCfg.Configs = cfgs
	base, err := vm.New(orig.Prog, vmCfg).Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range variants {
		res := benchprog.LULESH(v.v).MustCompile(compile.Options{})
		st, err := vm.New(res.Prog, vmCfg).Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %.2fx\n", v.label, float64(base.WallCycles)/float64(st.WallCycles))
	}
}
