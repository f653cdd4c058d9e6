// Package mia reproduces "Scaling Up the Memory Interference Analysis for
// Hard Real-Time Many-Core Systems" (Dupont de Dinechin, Schuh, Moy, Maïza
// — DATE 2020): computing static time-triggered schedules (release dates
// and worst-case response times under shared-memory interference) for task
// DAGs mapped onto many-core platforms, with the paper's O(n²) incremental
// algorithm and the O(n⁴) fixed-point baseline it supersedes.
//
// The implementation lives under internal/ — see DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-vs-measured record. The entry
// points are the ten command-line tools under cmd/: miasched, miagen and
// miabench reproduce the paper's figures and evaluation; miaflow runs the
// dataflow front end; miaopt searches mappings and orders; miaserve,
// miarouter and miaload serve and load-test the analysis; mialint and
// benchdiff are the lint and benchmark gates. The root-level bench_test.go
// hosts one testing.B benchmark per figure panel of the paper's evaluation
// plus the design-choice ablations.
package mia
