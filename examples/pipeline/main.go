// Pipeline is a producer/consumer program in the Linda-style "workers
// model" the paper references: producers generate job tuples, a pool of
// worker processes "seek work in the dataspace", square the payloads, and
// a collector gathers results. Views restrict what each process sees:
// workers cannot see the tally, and nobody but the collector touches it —
// demonstrating import windows alongside export filtering.
//
//	go run ./examples/pipeline [-jobs 50] [-workers 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	sdl "github.com/sdl-lang/sdl"
)

func main() {
	jobs := flag.Int("jobs", 50, "jobs to produce")
	workers := flag.Int("workers", 4, "worker processes")
	flag.Parse()
	if err := run(*jobs, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
}

var (
	job    = sdl.Atom("job")
	resAtm = sdl.Atom("res")
	eof    = sdl.Atom("eof")
	tally  = sdl.Atom("tally")
)

// producer emits <job, i, i> for i in [lo, hi) by counting down a local
// let-constant... SDL has no loops over integers, so the producer carries
// its range in the dataspace: <todo, i> tuples drive the repetition.
func producer() *sdl.Definition {
	return &sdl.Definition{
		Name: "Producer",
		Body: []sdl.Stmt{
			sdl.Repeat{Branches: []sdl.Branch{
				{Guard: sdl.Transact{
					Kind:    sdl.Immediate,
					Query:   sdl.Q(sdl.R(sdl.C(sdl.Atom("todo")), sdl.V("i"))),
					Asserts: []sdl.Pattern{sdl.P(sdl.C(job), sdl.V("i"), sdl.V("i"))},
				}},
			}},
			sdl.Transact{
				Kind:    sdl.Immediate,
				Query:   sdl.Query{Quant: sdl.Exists},
				Asserts: []sdl.Pattern{sdl.P(sdl.C(eof))},
			},
		},
	}
}

// worker repeatedly takes a job and asserts its squared result; it exits
// when the eof marker is visible and no jobs remain.
func worker() *sdl.Definition {
	jobsAndResults := sdl.Union(
		sdl.Pat(sdl.P(sdl.C(job), sdl.W(), sdl.W())),
		sdl.Pat(sdl.P(sdl.C(resAtm), sdl.W(), sdl.W())),
		sdl.Pat(sdl.P(sdl.C(eof))),
	)
	return &sdl.Definition{
		Name: "Worker",
		View: func(sdl.Scope) sdl.View { return sdl.NewView(jobsAndResults, jobsAndResults) },
		Body: []sdl.Stmt{sdl.Repeat{Branches: []sdl.Branch{
			{Guard: sdl.Transact{
				Kind:  sdl.Delayed,
				Query: sdl.Q(sdl.R(sdl.C(job), sdl.V("i"), sdl.V("x"))),
				Asserts: []sdl.Pattern{sdl.P(sdl.C(resAtm), sdl.V("i"),
					sdl.E(sdl.Mul(sdl.X("x"), sdl.X("x"))))},
			}},
			{Guard: sdl.Transact{
				Kind: sdl.Delayed,
				Query: sdl.Q(
					sdl.P(sdl.C(eof)),
					sdl.N(sdl.C(job), sdl.W(), sdl.W()),
				),
				Actions: []sdl.Action{sdl.Exit{}},
			}},
		}}},
	}
}

// collector folds results into a running <tally, sum, count> tuple. Its
// import must include job tuples: the exit guard's negation `not <job,*,*>`
// is evaluated against the window, so a view that hid jobs would make it
// vacuously true and let the collector exit while workers are still busy.
func collector() *sdl.Definition {
	resultsAndTally := sdl.Union(
		sdl.Pat(sdl.P(sdl.C(job), sdl.W(), sdl.W())),
		sdl.Pat(sdl.P(sdl.C(resAtm), sdl.W(), sdl.W())),
		sdl.Pat(sdl.P(sdl.C(tally), sdl.W(), sdl.W())),
		sdl.Pat(sdl.P(sdl.C(eof))),
	)
	return &sdl.Definition{
		Name: "Collector",
		View: func(sdl.Scope) sdl.View { return sdl.NewView(resultsAndTally, resultsAndTally) },
		Body: []sdl.Stmt{sdl.Repeat{Branches: []sdl.Branch{
			{Guard: sdl.Transact{
				Kind: sdl.Delayed,
				Query: sdl.Q(
					sdl.R(sdl.C(resAtm), sdl.W(), sdl.V("v")),
					sdl.R(sdl.C(tally), sdl.V("sum"), sdl.V("cnt")),
				),
				Asserts: []sdl.Pattern{sdl.P(sdl.C(tally),
					sdl.E(sdl.Add(sdl.X("sum"), sdl.X("v"))),
					sdl.E(sdl.Add(sdl.X("cnt"), sdl.Lit(sdl.Int(1)))))},
			}},
			{Guard: sdl.Transact{
				Kind: sdl.Delayed,
				Query: sdl.Q(
					sdl.P(sdl.C(eof)),
					sdl.N(sdl.C(resAtm), sdl.W(), sdl.W()),
					sdl.N(sdl.C(job), sdl.W(), sdl.W()),
				),
				Actions: []sdl.Action{sdl.Exit{}},
			}},
		}}},
	}
}

func run(jobs, workers int) error {
	sys := sdl.New(sdl.Options{})
	defer sys.Close()

	if err := sys.Define(producer(), worker(), collector()); err != nil {
		return err
	}
	for i := 0; i < jobs; i++ {
		sys.Store.Assert(sdl.Environment, sdl.NewTuple(sdl.Atom("todo"), sdl.Int(int64(i+1))))
	}
	sys.Store.Assert(sdl.Environment, sdl.NewTuple(tally, sdl.Int(0), sdl.Int(0)))

	start := time.Now()
	if _, err := sys.SpawnVals("Producer"); err != nil {
		return err
	}
	for w := 0; w < workers; w++ {
		if _, err := sys.SpawnVals("Worker"); err != nil {
			return err
		}
	}
	if _, err := sys.SpawnVals("Collector"); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sys.Runtime.WaitCtx(ctx); err != nil {
		return err
	}

	var sum, cnt int64
	sys.Store.Snapshot(func(r sdl.Reader) {
		r.Scan(3, tally, true, func(_ sdl.TupleID, t sdl.Tuple) bool {
			sum, _ = t.Field(1).AsInt()
			cnt, _ = t.Field(2).AsInt()
			return false
		})
	})
	var want int64
	for i := int64(1); i <= int64(jobs); i++ {
		want += i * i
	}
	fmt.Printf("%d jobs through %d workers in %v\n", jobs, workers,
		time.Since(start).Round(time.Microsecond))
	fmt.Printf("tally: sum of squares = %d (want %d), results = %d\n", sum, want, cnt)
	if sum != want || cnt != int64(jobs) {
		return fmt.Errorf("wrong tally")
	}
	return nil
}
