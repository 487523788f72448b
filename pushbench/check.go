package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/service"
)

// verify checks a finished session's outputs, after cadd has stopped:
// the stream's /report checkpoint equals an in-process replay of the
// same snapshots and config, every replayed instance matches the
// workload's description, the planted clique is flagged (by cadd and by
// the replay), cadd's build modes match the workload's claim, and the
// final /report covers every acked push.
func verify(opt options, cfg service.StreamConfig, l *pushLoad, final []byte, modes map[string]int) error {
	w := opt.workload
	if l.acked < verifyInstances || l.checkpoint == nil {
		return fmt.Errorf("only %d instances acked, the check needs %d", l.acked, verifyInstances)
	}
	if err := plantedFlagged(l.planted, newSequence(w, opt.seed).clique); err != nil {
		return fmt.Errorf("cadd: %w", err)
	}
	if err := checkMode(w, modes, l.acked-1); err != nil {
		return fmt.Errorf("cadd: %w", err)
	}
	var rep core.ReportJSON
	if err := json.Unmarshal(final, &rep); err != nil {
		return fmt.Errorf("final /report: %w", err)
	}
	if n := len(rep.Transitions); n != cfg.MaxHistory || rep.Transitions[n-1].Transition != l.acked-2 {
		return fmt.Errorf("final /report holds %d transitions, want the last %d of %d", n, cfg.MaxHistory, l.acked-1)
	}
	want, err := replay(w, opt.seed, cfg, verifyInstances)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !bytes.Equal(l.checkpoint, want) {
		return fmt.Errorf("/report after %d instances (%d bytes) differs from the in-process replay (%d bytes)",
			verifyInstances, len(l.checkpoint), len(want))
	}
	return nil
}

// replay pushes instances 0..n-1 of the workload's sequence through an
// in-process detector, asserting each instance's shape and the planted
// clique, and returns the canonical report bytes.
func replay(w *workload, seed int64, cfg service.StreamConfig, n int) ([]byte, error) {
	seq := newSequence(w, seed)
	det := newDetector(cfg)
	var prev *graph.Graph
	for t := 0; t < n; t++ {
		g, err := seq.next().Graph()
		if err != nil {
			return nil, err
		}
		if err := checkShape(w, t, prev, g); err != nil {
			return nil, err
		}
		rep, err := det.Push(g)
		if err != nil {
			return nil, err
		}
		if t == plantAt {
			j := rep.JSON()
			if err := plantedFlagged(&j, seq.clique); err != nil {
				return nil, err
			}
		}
		prev = g
	}
	var buf bytes.Buffer
	if err := core.WriteReportJSON(&buf, det.Report()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// plantedFlagged checks that the transition into the planted instance
// flags every clique vertex.
func plantedFlagged(tr *core.TransitionJSON, clique []int) error {
	if tr == nil {
		return fmt.Errorf("no report for the planted transition")
	}
	flagged := map[int]bool{}
	for _, v := range tr.Nodes {
		flagged[v] = true
	}
	for _, v := range clique {
		if !flagged[v] {
			return fmt.Errorf("planted transition %d: clique vertex %d not flagged (flagged %v)", tr.Transition, v, tr.Nodes)
		}
	}
	return nil
}

// checkMode asserts the workload's build-mode claim over its warm
// pushes (every oracle build but the cold first one): Woodbury on at
// least 90% of them, or on none.
func checkMode(w *workload, modes map[string]int, warm int) error {
	total := modes["cold"] + modes["warm"] + modes["incremental"] + modes["exact"]
	if total != warm+1 || modes["cold"] != 1 {
		return fmt.Errorf("%d oracle builds (%d cold), want %d (1 cold)", total, modes["cold"], warm+1)
	}
	inc := modes["incremental"]
	switch w.mode {
	case modeIncremental:
		if 10*inc < 9*warm {
			return fmt.Errorf("%s claims incremental builds, got %d of %d warm pushes", w.name, inc, warm)
		}
	case modeNeverIncremental:
		if inc != 0 {
			return fmt.Errorf("%s claims no incremental builds, got %d of %d warm pushes", w.name, inc, warm)
		}
	}
	return nil
}
