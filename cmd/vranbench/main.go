// Command vranbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	vranbench -list
//	vranbench [-quick] all
//	vranbench [-quick] fig13 fig14 …
//	vranbench [-quick] -decodejson BENCH_decode.json
package main

import (
	"flag"
	"fmt"
	"os"

	"vransim/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	list := flag.Bool("list", false, "list available experiments")
	decodeJSON := flag.String("decodejson", "", "write the steady-state decode benchmark report to this file and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}
	if *decodeJSON != "" {
		writeDecodeReport(*decodeJSON, *quick)
		return
	}
	runExperiments(flag.Args(), *quick)
}

// writeDecodeReport streams the machine-readable decode benchmark report
// to path.
func writeDecodeReport(path string, quick bool) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vranbench:", err)
		os.Exit(1)
	}
	if err := bench.WriteDecodeBenchJSON(f, quick); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "vranbench:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "vranbench:", err)
		os.Exit(1)
	}
}

func runExperiments(args []string, quick bool) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: vranbench [-quick] all | <experiment-id>... (see -list)")
		os.Exit(2)
	}
	opts := bench.Options{Quick: quick}
	for _, id := range args {
		if id == "all" {
			if err := bench.RunAll(os.Stdout, opts); err != nil {
				fmt.Fprintln(os.Stderr, "vranbench:", err)
				os.Exit(1)
			}
			continue
		}
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "vranbench: unknown experiment %q (see -list)\n", id)
			os.Exit(2)
		}
		if err := bench.RunOne(os.Stdout, e, opts); err != nil {
			fmt.Fprintln(os.Stderr, "vranbench:", err)
			os.Exit(1)
		}
	}
}
