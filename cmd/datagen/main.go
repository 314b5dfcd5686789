// Command datagen generates the synthetic benchmark datasets of the
// CPSJoin evaluation: TOKENS, UNIFORM, ZIPF, and scaled analogues of the
// real datasets of Mann et al., which are not redistributable: each profile
// keeps a real dataset's average set size and token-frequency structure
// (README, "Reproducing the paper").
//
// Usage:
//
//	datagen -kind tokens -cap 10000 -output tokens10k.txt
//	datagen -kind uniform -n 100000 -avg 10 -universe 209 -output uniform.txt
//	datagen -kind zipf -n 100000 -avg 10 -universe 5000 -skew 0.9 -output zipf.txt
//	datagen -kind profile -profile NETFLIX -n 50000 -output netflix.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	ssjoin "repro"
)

func main() {
	var (
		kind     = flag.String("kind", "", "dataset kind: tokens, uniform, zipf, profile")
		output   = flag.String("output", "", "output file (required)")
		n        = flag.Int("n", 100000, "number of sets (uniform, zipf, profile)")
		avg      = flag.Int("avg", 10, "average set size (uniform, zipf)")
		universe = flag.Int("universe", 1000, "token universe size (uniform, zipf)")
		skew     = flag.Float64("skew", 0.9, "Zipf skew (zipf)")
		cap      = flag.Int("cap", 10000, "token cap (tokens); the paper uses 10000/15000/20000")
		profile  = flag.String("profile", "", "profile name (profile); one of "+strings.Join(ssjoin.ProfileNames(), ", "))
		seed     = flag.Uint64("seed", 2018, "random seed")
	)
	flag.Parse()

	if *output == "" {
		fmt.Fprintln(os.Stderr, "datagen: -output is required")
		flag.Usage()
		os.Exit(2)
	}
	// A set has at least two distinct tokens, so a smaller universe, like
	// no sets, no set size or no token cap, has nothing to generate.
	for _, f := range []struct {
		name     string
		val, min int
	}{{"n", *n, 1}, {"avg", *avg, 1}, {"universe", *universe, 2}, {"cap", *cap, 1}} {
		if f.val < f.min {
			fatalf("%s %d out of range (at least %d)", f.name, f.val, f.min)
		}
	}

	var sets [][]uint32
	switch *kind {
	case "tokens":
		sets, _ = ssjoin.GenerateTokens(*cap, *seed)
	case "uniform":
		sets = ssjoin.GenerateUniform(*n, *avg, *universe, *seed)
	case "zipf":
		sets = ssjoin.GenerateZipf(*n, *avg, *universe, *skew, *seed)
	case "profile":
		var err error
		sets, err = ssjoin.GenerateProfile(*profile, *n, *seed)
		if err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown kind %q (want tokens, uniform, zipf or profile)", *kind)
	}

	if err := ssjoin.SaveSets(*output, sets); err != nil {
		fatalf("%v", err)
	}
	s := ssjoin.Summarize(sets)
	fmt.Fprintf(os.Stderr, "datagen: wrote %d sets (avg size %.1f, %d tokens, %.1f sets/token) to %s\n",
		s.NumSets, s.AvgSetSize, s.Universe, s.SetsPerToken, *output)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "datagen: "+format+"\n", args...)
	os.Exit(1)
}
