// Package core implements the PLUM framework driver: the
// solve -> adapt -> balance cycle of the paper's Fig. 1, wiring the mesh
// adaptor (pmesh/adapt), repartitioner (partition), processor
// reassignment and cost model (remap), the machine layer (machine), and
// the workloads (solver/linalg) together, with per-phase simulated-time
// accounting used to regenerate the paper's figures.
//
// Entry points.  AdaptionStep executes one full Fig. 1 cycle: marking,
// the quick load-balance evaluation, parallel repartitioning (with
// heterogeneous target shares and the realized-assignment re-price),
// processor reassignment, the gain/cost decision, data migration, and
// subdivision.  Unsteady drives the outer loop — a moving feature
// re-adapted every NAdapt solver iterations — and, under
// Config.Measured on a traced run, records each epoch's cost profile
// (internal/profile) and feeds it to the next epoch's decision: the
// measured-cost feedback loop.  Experiments bundles the fixed inputs of
// the paper's evaluation; cmd/plumbench renders its Table1/Table2/
// Fig2..Fig8 reproductions and the implicit / machine / feedback /
// scenario extensions.  Every experiment row comes from one of three
// world runners (worlds.go): a step world (runStep: one AdaptionStep —
// RunStep, Scaling, MachineSweep, Table2), an implicit-step world
// (runImplicit: one PCG step — PrecondComparison, OverlapComparison),
// or an epoch world (runEpochs, epochs.go, the only caller of
// Unsteady.Cycle — FeedbackComparison, Scenarios, ImplicitScaling and
// RunWorldCtx, one served request).  An experiment is a job list, one
// fan-out through the one scheduler (runWorlds, exactly once per world;
// mustRunWorlds for the CLI sweeps) and a reducer to its rows.  Every
// world starts from its machine's initial partition, memoized by P and
// speed shares (partitionFor).  ParseMapper is the one table of mapper
// names.
//
// Invariants.  The gain/cost decision is computed on rank 0 and
// broadcast, so every rank takes the same branch; its pricing tiers are
// strict fallbacks (measured when a profile exists, per-pair on a
// non-uniform topology, the paper's scalar formulas otherwise).  The
// default flat path is bitwise-pinned by the golden tests here:
// selecting machine "flat" — or nothing — must reproduce the recorded
// phase times exactly, and contended (fat tree) and measured-mode runs
// must be bitwise reproducible across GOMAXPROCS and repetition.
package core
