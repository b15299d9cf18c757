package analysis

import (
	"regexp"
	"strings"
)

// Config names the project-specific contracts the analyzers enforce.
// Every entry refers to packages and types by import path so the same
// analyzers can be pointed at the golden-file testdata packages.
type Config struct {
	// ModulePath is the module being linted (from go.mod).
	ModulePath string

	// DeterminismPkgs are the import paths whose code must be
	// reproducible bit-for-bit: wall-clock reads and global math/rand
	// are forbidden in them and in every module package they import.
	DeterminismPkgs []string

	// SingleWriterOwners are the packages allowed to mutate the guarded
	// types (field writes, element stores, mutating methods).
	SingleWriterOwners []string
	// GuardedTypes are "pkgpath.TypeName" references whose mutation is
	// single-writer-only.
	GuardedTypes []string
	// MutatingMethods are "pkgpath.TypeName.Method" references that
	// mutate a guarded type and therefore may only be called by owners.
	MutatingMethods []string

	// MustCheck are "pkgpath.TypeName.Method" references whose error
	// result must be handled explicitly — discarding it via the blank
	// identifier is flagged too, because these calls return valid
	// partial results alongside errors. Interface references cover every
	// implementation (matched via types.Implements).
	MustCheck []string

	// PoolPkg is the worker-pool package: the only place naked go
	// statements are allowed, and whose fan-out functions have their
	// closure arguments checked for captured scratch.
	PoolPkg string

	// ScratchTypePattern matches named types that are per-call solver
	// scratch; a pool closure capturing a value of such a type (rather
	// than receiving per-worker scratch via the worker index) is flagged.
	ScratchTypePattern *regexp.Regexp

	// EpsilonHelperPattern matches function names inside which exact
	// float comparison is the point (approximate-equality helpers).
	EpsilonHelperPattern *regexp.Regexp

	// HotPathRoots are "pkgpath.TypeName.Method" (or "pkgpath.Func")
	// references naming the hot-loop entry points (Pr(φ), c-table
	// maintenance, posterior inference); every map allocation in a
	// function statically reachable from them within their package is
	// flagged by the hotalloc analyzer.
	HotPathRoots []string

	// DocPkgs are import-path prefixes whose exported declarations must
	// carry doc comments (the doccomment analyzer's scope). The module
	// path itself makes the whole repo in scope.
	DocPkgs []string

	// LedgerTypes are "pkgpath.TypeName" references to the crowd
	// accounting structures whose counters must stay conserved; the
	// ledger analyzer restricts their mutation sites.
	LedgerTypes []string
	// LedgerRoots are "pkgpath.TypeName.Method" (or "pkgpath.Func")
	// references naming the accounting entry points; ledger mutations
	// are legal only in their interprocedural call trees and in methods
	// declared on the ledger types themselves.
	LedgerRoots []string
}

// RepoConfig is the bayescrowd contract set: the invariants PRs 1-3
// introduced, in machine-checkable form (see DESIGN.md "Enforced
// invariants" for the mapping).
func RepoConfig(modulePath string) *Config {
	p := func(rel string) string { return modulePath + "/" + rel }
	return &Config{
		ModulePath: modulePath,
		DeterminismPkgs: []string{
			p("internal/core"),
			p("internal/prob"),
			p("internal/ctable"),
			p("internal/crowd"),
			p("internal/parallel"),
			p("internal/stream"),
		},
		SingleWriterOwners: []string{
			p("internal/core"),
			p("internal/prob"),
			p("internal/ctable"),
			p("internal/stream"),
		},
		GuardedTypes: []string{
			p("internal/prob") + ".Evaluator",
			p("internal/ctable") + ".DynCTable",
			// Knowledge is mutated only between fan-outs (Absorb after a
			// crowd round, Forget on eviction); it has no mutex by design,
			// so the single-writer gate is its whole concurrency story.
			p("internal/ctable") + ".Knowledge",
		},
		MutatingMethods: []string{
			p("internal/ctable") + ".Knowledge.Absorb",
			p("internal/ctable") + ".Knowledge.Forget",
		},
		MustCheck: []string{
			p("internal/crowd") + ".Platform.Post",
			p("internal/crowd") + ".AsyncPlatform.PostAsync",
			p("internal/ctable") + ".Knowledge.Absorb",
		},
		PoolPkg:              p("internal/parallel"),
		ScratchTypePattern:   regexp.MustCompile(`(?i)(solver|scratch)`),
		EpsilonHelperPattern: regexp.MustCompile(`(?i)(approx|almost|close|within|eps)`),
		HotPathRoots: []string{
			p("internal/prob") + ".Evaluator.Prob",
			p("internal/prob") + ".Evaluator.ExprProb",
			p("internal/prob") + ".Evaluator.CondProbsWith",
			p("internal/prob") + ".CondScan.CondProbs",
			p("internal/prob") + ".CondScan.PlanSweeps",
			p("internal/ctable") + ".DynCTable.Insert",
			p("internal/ctable") + ".DynCTable.Evict",
			p("internal/ctable") + ".DynCTable.Cond",
			p("internal/stream") + ".CrowdEngine.Tick",
			// Posterior inference runs once per missing cell during
			// preprocessing; its kernel works in reused scratch.
			p("internal/bayesnet") + ".Network.PosteriorInto",
		},
		DocPkgs: []string{modulePath},
		LedgerTypes: []string{
			p("internal/stream") + ".CrowdLedger",
			p("internal/crowd") + ".Stats",
			p("internal/service") + ".Ledger",
		},
		LedgerRoots: []string{
			p("internal/stream") + ".CrowdEngine.Tick",
			p("internal/core") + ".crowdPhase",
			// The service hub's settlement paths are the only legal
			// mutation sites of the per-query crowd-cost ledgers; every
			// reserve/charge/refund happens inside these call trees, which
			// is what keeps Ledger.Conserved a theorem rather than a hope.
			p("internal/service") + ".hub.register",
			p("internal/service") + ".hub.resolve",
			p("internal/service") + ".hub.expireOverdue",
			p("internal/service") + ".hub.drain",
		},
	}
}

// splitTypeRef splits "pkgpath.TypeName" into its package path and type
// name (the last dot separates them; package paths may contain dots in
// their host part but never after the final slash).
func splitTypeRef(ref string) (pkgPath, name string) {
	i := strings.LastIndex(ref, ".")
	if i < 0 {
		return "", ref
	}
	return ref[:i], ref[i+1:]
}

// splitMethodRef splits "pkgpath.TypeName.Method" into package path,
// type name and method name.
func splitMethodRef(ref string) (pkgPath, typeName, method string) {
	i := strings.LastIndex(ref, ".")
	if i < 0 {
		return "", "", ref
	}
	pkgPath, typeName = splitTypeRef(ref[:i])
	return pkgPath, typeName, ref[i+1:]
}
