// Command experiments runs the paper-reproduction experiments and prints
// their series. With no arguments it runs everything; `-list` shows the
// experiment IDs (the internal/experiments package doc maps them to the
// paper's figures and sections).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	parallelism := flag.Int("parallelism", 0,
		"concurrent what-if estimations per advisor run (0 = all cores; results are identical across settings)")
	flag.Parse()
	experiments.SetParallelism(*parallelism)
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	env, err := experiments.NewEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "environment:", err)
		os.Exit(1)
	}
	failed := 0
	for _, id := range ids {
		t0 := time.Now()
		res, err := experiments.Run(id, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(res.Render())
		fmt.Printf("(%s in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
