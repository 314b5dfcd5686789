// Command ssjoin runs a set similarity self-join over a dataset file.
//
// The input format is one set per line of whitespace-separated integer
// tokens (the format of the Mann et al. benchmark suite). Results are
// written one pair per line as "i j similarity" using 0-based line indices
// of the (cleaned) input.
//
// With -save-index the index is built once from the input, and the save
// runs on its own goroutine beside the join, which reads the same index.
// The run waits for the save before it creates the pair file: a failed
// save fails the run (exit 1, "saving index") and no pairs are written.
// The saved file is the same as a save before the join would write.
//
// Usage:
//
//	ssjoin -input sets.txt -threshold 0.5 [-algorithm cpsjoin] [-seed 42]
//	       [-repetitions 6] [-stats] [-output pairs.txt] [-save-index ix.bin]
//	ssjoin -load-index ix.bin -threshold 0.7 [...]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	ssjoin "repro"
)

func main() {
	var (
		input      = flag.String("input", "", "input dataset file (required)")
		input2     = flag.String("input2", "", "second dataset for an R-S join (R = -input, S = -input2; algorithms: cpsjoin, allpairs)")
		output     = flag.String("output", "", "output file (default stdout)")
		threshold  = flag.Float64("threshold", 0.5, "Jaccard similarity threshold in (0,1)")
		algorithm  = flag.String("algorithm", "cpsjoin", "join algorithm: cpsjoin, allpairs, ppjoin, minhash, bayeslsh, bruteforce")
		seed       = flag.Uint64("seed", 42, "random seed for approximate algorithms")
		reps       = flag.Int("repetitions", 0, "CPSJoin repetitions, at least 0 (0 = default 6 at sketch δ 0.01; the paper's Table III runs 10 at δ 0.05); cpsjoin only")
		recall     = flag.Float64("recall", 0, "target recall for minhash/bayeslsh in [0,1) (0 = default); minhash and bayeslsh only")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the join and preprocessing (1 = sequential; the reported pair set is independent of this, -stats counters may vary slightly)")
		noClean    = flag.Bool("no-clean", false, "skip duplicate/singleton removal")
		printStats = flag.Bool("stats", false, "print candidate statistics to stderr")
		saveIndex  = flag.String("save-index", "", "after preprocessing, persist the index to this file")
		loadIndex  = flag.String("load-index", "", "load a persisted index instead of -input (cpsjoin, minhash and bayeslsh reuse its preprocessing; the other algorithms join its sets)")
	)
	flag.Parse()

	if (*input == "") == (*loadIndex == "") {
		fmt.Fprintln(os.Stderr, "ssjoin: exactly one of -input and -load-index is required (a saved index carries its collection)")
		flag.Usage()
		os.Exit(2)
	}
	if *threshold <= 0 || *threshold >= 1 {
		fatalf("threshold %v out of (0,1)", *threshold)
	}
	if *reps < 0 {
		fatalf("repetitions %d is negative (0 = the default)", *reps)
	}
	if *recall < 0 || *recall >= 1 {
		fatalf("recall %v out of [0,1) (0 = the default)", *recall)
	}
	// A flag the chosen join does not read is refused, not ignored.
	alg := ssjoin.Algorithm(*algorithm)
	if *reps != 0 && alg != ssjoin.AlgCPSJoin {
		fatalf("repetitions %d applies only to cpsjoin, not %s", *reps, alg)
	}
	if *recall != 0 && alg != ssjoin.AlgMinHash && alg != ssjoin.AlgBayesLSH {
		fatalf("recall %v applies only to minhash and bayeslsh, not %s", *recall, alg)
	}

	var (
		sets [][]uint32
		ix   *ssjoin.Index
		err  error
	)
	opts0 := &ssjoin.Options{Seed: *seed, Workers: *workers}
	switch {
	case *loadIndex != "":
		ix, err = ssjoin.LoadIndex(*loadIndex)
		if err != nil {
			fatalf("%v", err)
		}
		sets = ix.Sets()
		fmt.Fprintf(os.Stderr, "ssjoin: loaded index with %d sets\n", len(sets))
	default:
		sets, err = ssjoin.LoadSets(*input)
		if err != nil {
			fatalf("loading %s: %v", *input, err)
		}
		if !*noClean {
			before := len(sets)
			sets = ssjoin.CleanSets(sets)
			if removed := before - len(sets); removed > 0 {
				fmt.Fprintf(os.Stderr, "ssjoin: removed %d duplicate/singleton sets\n", removed)
			}
		}
	}
	opts := &ssjoin.Options{Seed: *seed, Repetitions: *reps, TargetRecall: *recall, Workers: *workers}
	var sets2 [][]uint32
	if *input2 != "" {
		sets2, err = ssjoin.LoadSets(*input2)
		if err != nil {
			fatalf("loading %s: %v", *input2, err)
		}
		if !*noClean {
			sets2 = ssjoin.CleanSets(sets2)
		}
	}

	// The save only reads the index, as the join does, so it runs beside
	// the join; its result is awaited before the pair file is created.
	var saved chan error
	if *saveIndex != "" {
		if ix == nil {
			ix = ssjoin.NewIndex(sets, opts0)
		}
		saved = make(chan error, 1)
		go func() { saved <- ix.Save(*saveIndex) }()
	}

	var (
		pairs []ssjoin.Pair
		stats ssjoin.Stats
	)
	if *input2 != "" {
		switch *algorithm {
		case "cpsjoin":
			pairs, stats = ssjoin.CPSJoinRS(sets, sets2, *threshold, opts)
		case "allpairs":
			pairs, stats = ssjoin.AllPairsRS(sets, sets2, *threshold, opts)
		default:
			err = fmt.Errorf("ssjoin: R-S joins support cpsjoin and allpairs, not %q", *algorithm)
		}
	} else if join := indexed[alg]; ix != nil && join != nil {
		// Reuse the loaded/saved preprocessing.
		pairs, stats = join(ix, *threshold, opts)
	} else {
		pairs, stats, err = ssjoin.Join(sets, *threshold, alg, opts)
	}
	if saved != nil {
		if err := <-saved; err != nil {
			fatalf("saving index: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ssjoin: index saved to %s\n", *saveIndex)
	}
	if err != nil {
		// The error already names the program, as ssjoin's own errors do.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	out := os.Stdout
	if *output != "" {
		out, err = os.Create(*output)
		if err != nil {
			fatalf("%v", err)
		}
	}
	w := bufio.NewWriterSize(out, 64<<10)
	var line []byte
	for _, p := range pairs {
		b := sets[p.B]
		if sets2 != nil {
			b = sets2[p.B]
		}
		line = appendPair(line[:0], p.A, p.B, ssjoin.Jaccard(sets[p.A], b))
		w.Write(line) // a failed write sticks in w; Flush reports it
	}
	// Some file systems report a failed write only at close, so a pair file
	// is complete only once Close has succeeded too.
	if err := w.Flush(); err != nil {
		fatalf("writing output: %v", err)
	}
	if err := out.Close(); err != nil {
		fatalf("writing output: %v", err)
	}

	if *printStats {
		// The approximate joins also say how many repetitions they ran.
		reran := ""
		if stats.Repetitions > 0 {
			reran = fmt.Sprintf(", %d repetitions", stats.Repetitions)
		}
		fmt.Fprintf(os.Stderr, "ssjoin: %d pairs, %d pre-candidates, %d candidates verified%s\n",
			stats.Results, stats.PreCandidates, stats.Candidates, reran)
	}
}

// appendPair appends one line of the pair file, "a b similarity" with the
// similarity to four decimals: fmt's "%d %d %.4f\n" without fmt.
func appendPair(dst []byte, a, b int, sim float64) []byte {
	dst = strconv.AppendInt(dst, int64(a), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(b), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, sim, 'f', 4, 64)
	return append(dst, '\n')
}

// indexed lists the joins that run over a preprocessed index.
var indexed = map[ssjoin.Algorithm]func(*ssjoin.Index, float64, *ssjoin.Options) ([]ssjoin.Pair, ssjoin.Stats){
	ssjoin.AlgCPSJoin:  (*ssjoin.Index).CPSJoin,
	ssjoin.AlgMinHash:  (*ssjoin.Index).MinHashJoin,
	ssjoin.AlgBayesLSH: (*ssjoin.Index).BayesLSHJoin,
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ssjoin: "+format+"\n", args...)
	os.Exit(1)
}
