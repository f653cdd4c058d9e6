package engine_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// corpusDigest is the SHA-256 over every result TestCorpusDigestGolden
// computes. It was recorded while graphs still reached the backends through
// a second compile path and per-package entry points that the engine was
// differentially tested against, so it carries that comparison forward:
// any change to an analyzed quantity on the corpus changes the digest.
const corpusDigest = "c9ce164e1d8dddee056fa1b7e5d4e8233d7f06cf56ef886be081e1cfb8cb257c"

// resultDigest accumulates analysis outcomes into one SHA-256.
type resultDigest struct{ h hash.Hash }

// add folds one analysis outcome into the digest: every field of a
// successful result, or the error text of a failed run.
func (d resultDigest) add(res *sched.Result, err error) {
	h := d.h
	if err != nil {
		io.WriteString(h, "error:"+err.Error()+"\n")
		return
	}
	put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	putAll := func(vs []model.Cycles) {
		put(int64(len(vs)))
		for _, v := range vs {
			put(int64(v))
		}
	}
	io.WriteString(h, "result:"+res.Algorithm+"\n")
	putAll(res.Release)
	putAll(res.Response)
	putAll(res.Interference)
	put(int64(len(res.PerBank)))
	for _, row := range res.PerBank {
		putAll(row)
	}
	put(int64(res.Iterations))
	put(int64(res.Makespan))
}

// TestCorpusDigestGolden pins every analysis the engine runs over the
// differential corpus to one recorded digest: incremental cold, warm first
// run, zero-edit replay, AnalyzeCold, a legal adjacent-swap reschedule and
// its undo, and fixpoint cold.
func TestCorpusDigestGolden(t *testing.T) {
	ctx := context.Background()
	inc := engine.MustNew(engine.Incremental)
	fix := engine.MustNew(engine.Fixpoint)
	d := resultDigest{h: sha256.New()}
	for ci, p := range diffCorpus() {
		g := gen.MustLayered(p)
		img, err := engine.Compile(g, corpusOpts(ci))
		if err != nil {
			t.Fatalf("corpus[%d]: compile: %v", ci, err)
		}
		d.add(inc.Analyze(ctx, img))
		w := inc.NewWarm(img)
		d.add(w.Analyze(ctx))
		d.add(w.Reschedule(ctx))
		d.add(w.AnalyzeCold(ctx))
		if core, pos, ok := legalSwap(g); ok {
			edit := engine.Edit{Core: core, From: pos}
			w.Orders().Swap(core, pos)
			d.add(w.Reschedule(ctx, edit))
			w.Orders().Swap(core, pos)
			d.add(w.Reschedule(ctx, edit))
		}
		d.add(fix.Analyze(ctx, img))
	}
	if got := hex.EncodeToString(d.h.Sum(nil)); got != corpusDigest {
		t.Fatalf("corpus digest %s, want %s", got, corpusDigest)
	}
}

// releaseDigest is the SHA-256 over every result TestReleaseSolverDigestGolden
// computes, recorded while the rta bound still carried its own copy of the
// baseline's release solver.
const releaseDigest = "d015de21019f11f3d843b1031a2d23c1c2d1226d57bce641cb7ee8e07f9a1df0"

// TestReleaseSolverDigestGolden pins the two analyses that solve the
// release equations under frozen responses, over the whole corpus: the rta
// bound and the fixpoint baseline, each without a deadline, then with the
// deadline at the makespan the free run reached and at three quarters of
// it, so the deadline checks made between rounds are pinned too.
func TestReleaseSolverDigestGolden(t *testing.T) {
	d := resultDigest{h: sha256.New()}
	for ci, p := range diffCorpus() {
		g := gen.MustLayered(p)
		for _, name := range []string{engine.RTA, engine.Fixpoint} {
			opts := corpusOpts(ci)
			free, err := coldRun(name, g, opts)
			d.add(free, err)
			if err != nil {
				continue
			}
			for _, deadline := range []model.Cycles{free.Makespan, free.Makespan * 3 / 4} {
				opts.Deadline = deadline
				d.add(coldRun(name, g, opts))
			}
		}
	}
	if got := hex.EncodeToString(d.h.Sum(nil)); got != releaseDigest {
		t.Fatalf("release solver digest %s, want %s", got, releaseDigest)
	}
}
