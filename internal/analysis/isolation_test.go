package analysis

import "testing"

func TestFrameworkIsolation(t *testing.T) {
	checkRule(t, FrameworkIsolation, []ruleCase{
		{
			name: "cross-framework import is flagged",
			path: "gapbench/internal/galois",
			files: map[string]string{"bad.go": `package galois

import "gapbench/internal/gap"

var _ = gap.New
`},
			want: []string{"bad.go:3: [framework-isolation] framework package galois imports framework package gap"},
		},
		{
			name: "substrate imports are clean",
			path: "gapbench/internal/galois",
			files: map[string]string{"ok.go": `package galois

import (
	"gapbench/internal/graph"
	"gapbench/internal/kernel"
	"gapbench/internal/par"
)

func use(g *graph.Graph, o kernel.Options) { par.Default().For(0, 1, func(int) {}) }
`},
			want: nil,
		},
		{
			name: "non-substrate internal import is flagged",
			path: "gapbench/internal/gkc",
			files: map[string]string{"bad.go": `package gkc

import "gapbench/internal/report"

var _ = report.Render
`},
			want: []string{"[framework-isolation] framework package gkc imports gapbench/internal/report, which is not part of the shared substrate"},
		},
		{
			name: "test files may use the conformance suite",
			path: "gapbench/internal/gkc",
			files: map[string]string{
				"ok.go": `package gkc
`,
				"ok_test.go": `package gkc_test

import (
	"gapbench/internal/gkc"
	"gapbench/internal/testutil"
	"gapbench/internal/verify"
)

var (
	_ = gkc.New
	_ = testutil.Sources
	_ = verify.CheckTC
)
`,
			},
			want: nil,
		},
		{
			name: "conformance suite imports are still illegal outside tests",
			path: "gapbench/internal/nwgraph",
			files: map[string]string{"bad.go": `package nwgraph

import "gapbench/internal/verify"

var _ = verify.CheckTC
`},
			want: []string{"framework package nwgraph imports gapbench/internal/verify"},
		},
		{
			name: "non-framework packages are out of scope",
			path: "gapbench/internal/core",
			files: map[string]string{"ok.go": `package core

import (
	"gapbench/internal/galois"
	"gapbench/internal/gap"
)

var (
	_ = gap.New
	_ = galois.New
)
`},
			want: nil,
		},
	})
}
