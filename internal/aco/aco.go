// Package aco implements the paper's Ant Colony Optimization scheduler
// (§IV, Algorithm 2, Equations 5–11, Table II parameters).
//
// Each ant builds a complete cloudlet→VM assignment. For cloudlet i an ant
// picks VM j among its allowed set with probability
//
//	p_ij ∝ τ_ij^α · η_ij^β                      (Eq. 5)
//
// where the heuristic desirability η_ij = 1/d_ij is the inverse expected
// execution time
//
//	d_ij = Length_i/(PEs_j·MIPS_j) + FileSize_i/Bw_j   (Eq. 6)
//
// The tabu list enforces the paper's constraint that an ant visits each VM
// once before revisiting: after every VM has been used the list resets,
// which spreads assignments across the fleet in rounds. A tour's quality
// L_k is Eq. 8's estimated makespan — the maximum per-VM sum of d_ij along
// the tour. After all ants finish a tour, pheromone evaporates and is
// reinforced proportionally to tour quality (Eqs. 7–10), with an elitist
// bonus on the iteration-best tour (Eq. 11). The best tour over all
// iterations is returned.
//
// All Eq. 6/8 arithmetic comes from the shared internal/objective layer: a
// compressed execution matrix caches d_ij per (cloudlet, VM-class), η^β is
// precomputed per class alongside it, and tours are scored by an
// incremental Evaluator. The pheromone itself is stored factored as
// τ_ij = g·b_ij with a global decay scalar g, which makes Eq. 9's
// evaporation O(1) instead of O(n·m) and lets Eq. 5's sampling skip the
// per-cell τ^α power entirely: g^α is a common factor of every candidate
// weight, so it cancels in the roulette normalization and only b^α — cached
// and refreshed on deposit — is needed. The sampled distribution is
// mathematically identical to the direct form (individual draws may differ
// in the last float ulp).
//
// Tour construction is the hot path and fans out over Config.Workers: each
// ant owns the xrand child stream indexed by (iteration, ant) and writes
// only its own chunk of the combined tour, so assignments are bit-identical
// for every worker count at a fixed seed. The pheromone update — which
// couples ants — stays serial in ant order after the join.
//
// With Table II's α=0.01, β=0.99 the search is heavily heuristic-driven:
// ACO chases computation speed, which is exactly the behaviour the paper
// reports (best simulation time, worst load imbalance, longest scheduling
// time).
package aco

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/xrand"
)

// Config holds the ACO parameters. Defaults reproduce the paper's Table II.
type Config struct {
	Ants       int     // colony size (Table II: 50)
	Alpha      float64 // pheromone weight α (Table II: 0.01)
	Beta       float64 // heuristic weight β (Table II: 0.99)
	Rho        float64 // pheromone decay ρ (Table II: 0.4)
	Q          float64 // pheromone deposit constant (Table II: 100)
	Iterations int     // tour-construction rounds (paper: "maxIterations")
	InitialTau float64 // τ(0), the uniform initial pheromone (Alg. 2's C)
	// MaxMatrixCells bounds the dense per-(cloudlet, VM) pheromone matrix of
	// Eq. 5 and the shared execution-estimate cache. Batches with n·m beyond
	// the bound fall back to a per-VM pheromone vector — exact for the
	// paper's homogeneous scenario (where d_ij is constant per VM) and the
	// only way to run its extreme sizes (1 000 000 cloudlets × 100 000 VMs
	// would need a 10¹¹-cell matrix).
	MaxMatrixCells int64
	// Workers bounds the per-iteration ant-construction pool: 0 means
	// GOMAXPROCS, 1 forces serial. Tours are bit-identical for every worker
	// count — each ant owns the xrand child stream indexed by
	// (iteration, ant), and pheromone deposits are applied serially in ant
	// order after the join.
	Workers int
}

// DefaultConfig returns Table II's parameters with 20 iterations and τ(0)=1.
// The paper's Algorithm 2 leaves maxIterations open ("multiple values were
// tested, and the best parameters were chosen"); 20 is where the combined
// tour quality stops improving on the heterogeneous workload, see the
// abl-aco-params benchmarks.
func DefaultConfig() Config {
	return Config{Ants: 50, Alpha: 0.01, Beta: 0.99, Rho: 0.4, Q: 100, Iterations: 20, InitialTau: 1, MaxMatrixCells: 64 << 20}
}

// Validate rejects configurations the update rules cannot handle.
func (c Config) Validate() error {
	switch {
	case c.Ants <= 0:
		return fmt.Errorf("aco: Ants must be positive, got %d", c.Ants)
	case c.Iterations <= 0:
		return fmt.Errorf("aco: Iterations must be positive, got %d", c.Iterations)
	case c.Rho < 0 || c.Rho >= 1:
		return fmt.Errorf("aco: Rho must be in [0,1), got %v", c.Rho)
	case c.Q <= 0:
		return fmt.Errorf("aco: Q must be positive, got %v", c.Q)
	case c.InitialTau <= 0:
		return fmt.Errorf("aco: InitialTau must be positive, got %v", c.InitialTau)
	case c.Alpha < 0 || c.Beta < 0:
		return fmt.Errorf("aco: Alpha and Beta must be non-negative, got %v/%v", c.Alpha, c.Beta)
	case c.MaxMatrixCells <= 0:
		return fmt.Errorf("aco: MaxMatrixCells must be positive, got %d", c.MaxMatrixCells)
	case c.Workers < 0:
		return fmt.Errorf("aco: Workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Scheduler is the ACO batch scheduler.
type Scheduler struct {
	cfg Config
}

// New returns an ACO scheduler with cfg; zero-value fields fall back to the
// paper's defaults field-by-field.
func New(cfg Config) *Scheduler {
	def := DefaultConfig()
	if cfg.Ants == 0 {
		cfg.Ants = def.Ants
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.Alpha == 0 && cfg.Beta == 0 {
		cfg.Alpha, cfg.Beta = def.Alpha, def.Beta
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.Rho == 0 {
		cfg.Rho = def.Rho
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.Q == 0 {
		cfg.Q = def.Q
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = def.Iterations
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.InitialTau == 0 {
		cfg.InitialTau = def.InitialTau
	}
	if cfg.MaxMatrixCells == 0 {
		cfg.MaxMatrixCells = def.MaxMatrixCells
	}
	return &Scheduler{cfg: cfg}
}

// Default returns an ACO scheduler with the paper's Table II parameters.
func Default() *Scheduler { return New(DefaultConfig()) }

// Config returns the scheduler's effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SetWorkers implements sched.WorkerTunable: it bounds the ant-construction
// pool (0 = GOMAXPROCS, 1 = serial) without changing any tour.
func (s *Scheduler) SetWorkers(workers int) { s.cfg.Workers = workers }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "aco" }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx.Rand == nil {
		return nil, fmt.Errorf("aco: scheduler requires ctx.Rand")
	}
	run := newRun(s.cfg, ctx)
	best := run.search()
	out := make([]sched.Assignment, len(ctx.Cloudlets))
	for i, v := range best {
		out[i] = sched.Assignment{Cloudlet: ctx.Cloudlets[i], VM: ctx.VMs[v]}
	}
	return out, nil
}

// renormThreshold triggers folding the global decay scalar g back into the
// per-cell base pheromone before g underflows. With ρ=0.4, g reaches it
// after ~650 iterations, so renormalization is essentially free.
const renormThreshold = 1e-120

// minParallelCells is the n·m size below which the ant-construction pool
// stays serial. Each roulette candidate costs a multiply and an add, so the
// break-even point sits well below PopEvaluator's per-individual one.
const minParallelCells = 1 << 12

// run carries the per-call search state. Execution estimates live in a
// shared objective.Matrix (compressed per VM class); pheromone has two
// layouts:
//
//   - dense: the faithful per-(cloudlet, VM) matrix of Eq. 5, used whenever
//     n·m fits within Config.MaxMatrixCells;
//   - vector: one pheromone value per VM, used for the paper's extreme
//     homogeneous sizes (up to 10¹¹ pairs) where a dense matrix is
//     physically impossible. In the homogeneous scenario every cloudlet has
//     identical d_ij per VM, so collapsing the cloudlet dimension is exact;
//     for heterogeneous batches it is an approximation, which is why the
//     threshold is generous and configurable.
//
// Both layouts store τ factored as g·b (see the package comment): evaporate
// touches only g, deposits touch only the cells of the deposited tours, and
// picks read the cached b^α without any math.Pow.
type run struct {
	cfg     Config
	ctx     *sched.Context
	n       int // cloudlets
	m       int // VMs
	workers int // effective construction pool size (≥ 1)
	dense   bool

	mx  *objective.Matrix // shared Eq. 6 cache
	k   int               // VM class count
	cls []int32           // VM → class index

	// etaCls caches η_ij^β per (cloudlet, class) when the execution matrix is
	// materialized; nil means compute on demand (memory-bounded fallback).
	etaCls []float64

	g        float64   // global pheromone decay scalar
	b        []float64 // dense: base pheromone per (cloudlet, VM), row-major
	bAlpha   []float64 // dense: cached b^α, refreshed on deposit
	bVM      []float64 // vector: base pheromone per VM
	bVMAlpha []float64 // vector: cached b^α, refreshed once per iteration

	// tour is the current combined assignment (cloudlet → VM index). Ants
	// write disjoint chunks of it, so the parallel construction phase shares
	// it without synchronization.
	tour []int
	// scratch pools per-worker antScratch values so a parallel iteration
	// never shares tabu lists, roulette weights, or evaluators across
	// goroutines.
	scratch sync.Pool

	bestTour []int
	bestLen  float64
}

// antScratch is one worker's private construction state.
type antScratch struct {
	tabu []bool
	cum  []float64            // roulette cumulative-weight buffer
	eval *objective.Evaluator // incremental Eq. 8 scorer for ant tours
}

func (r *run) getScratch() *antScratch {
	if sc, ok := r.scratch.Get().(*antScratch); ok {
		return sc
	}
	return &antScratch{
		tabu: make([]bool, r.m),
		cum:  make([]float64, r.m),
		eval: objective.NewEvaluator(r.mx, false),
	}
}

func newRun(cfg Config, ctx *sched.Context) *run {
	r := &run{
		cfg: cfg, ctx: ctx,
		n: len(ctx.Cloudlets), m: len(ctx.VMs),
		bestLen: math.Inf(1),
		g:       1,
	}
	// The construction pool: one worker below the dispatch break-even point,
	// otherwise the configured bound. Results never depend on the choice.
	r.workers = objective.EffectiveWorkers(cfg.Workers, int64(r.n)*int64(r.m), minParallelCells)
	r.mx = objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{MaxCells: cfg.MaxMatrixCells, Workers: cfg.Workers})
	r.k = r.mx.K()
	r.cls = make([]int32, r.m)
	for j := 0; j < r.m; j++ {
		r.cls[j] = int32(r.mx.Class(j))
	}
	if r.mx.Cached() {
		// η^β rows are independent; math.Pow per cell is exactly the kind of
		// work that fans out cleanly.
		r.etaCls = make([]float64, r.n*r.k)
		objective.ParallelFor(r.workers, r.n, func(i int) {
			row := r.etaCls[i*r.k : (i+1)*r.k]
			for cl := range row {
				row[cl] = etaPow(r.mx.ExecByClass(i, cl), cfg.Beta)
			}
		})
	}
	r.tour = make([]int, r.n)

	r.dense = int64(r.n)*int64(r.m) <= cfg.MaxMatrixCells
	ba0 := math.Pow(cfg.InitialTau, cfg.Alpha)
	if r.dense {
		r.b = make([]float64, r.n*r.m)
		r.bAlpha = make([]float64, r.n*r.m)
		objective.ParallelFor(r.workers, r.n, func(i int) {
			row := r.b[i*r.m : (i+1)*r.m]
			rowA := r.bAlpha[i*r.m : (i+1)*r.m]
			for idx := range row {
				row[idx] = cfg.InitialTau
				rowA[idx] = ba0
			}
		})
	} else {
		r.bVM = make([]float64, r.m)
		r.bVMAlpha = make([]float64, r.m)
		for j := range r.bVM {
			r.bVM[j] = cfg.InitialTau
			r.bVMAlpha[j] = ba0
		}
	}
	return r
}

// etaPow returns η^β = (1/d)^β with the degenerate d≤0 case clamped so the
// weight stays finite-ready for the roulette's overflow fallback.
func etaPow(d, beta float64) float64 {
	if d <= 0 {
		d = math.SmallestNonzeroFloat64
	}
	return math.Pow(1/d, beta)
}

// eta returns the cached (or on-demand) η_ij^β.
func (r *run) eta(i, j int) float64 {
	if r.etaCls != nil {
		return r.etaCls[i*r.k+int(r.cls[j])]
	}
	return etaPow(r.mx.Exec(i, j), r.cfg.Beta)
}

// search runs the configured iterations and returns the best combined tour.
//
// Following Algorithm 2 and Figure 2, the scheduler "distributes the
// Cloudlets to each ant": the batch is partitioned into one contiguous
// chunk per ant, each ant walks VMs for its own chunk under its own tabu
// list, and the union of all ants' picks is the iteration's solution. The
// best iteration (by Eq. 8 makespan over the union) is returned.
//
// Ants within an iteration are independent — ant k writes only tour[lo:hi)
// of its own chunk and tourLens[k], and draws from its own xrand child
// stream — so construction fans out across the worker pool. Everything that
// couples ants (iteration-best selection, evaporation, deposits in ant
// order, the elitist bonus) runs serially after the join, which is what
// keeps tours bit-identical for every worker count.
func (r *run) search() []int {
	ants := r.cfg.Ants
	if ants > r.n {
		ants = r.n // never more ants than cloudlets; the rest would idle
	}
	chunks := make([][2]int, ants)
	for k := 0; k < ants; k++ {
		chunks[k] = [2]int{k * r.n / ants, (k + 1) * r.n / ants}
	}
	tourLens := make([]float64, ants)
	busy := make([]float64, r.m)
	// One draw off the caller's stream seeds the whole search; ant k of
	// iteration it then owns child stream it·ants+k, so its randomness
	// depends only on (seed, iteration, ant) — never on worker interleaving.
	seed := r.ctx.Rand.Uint64()
	for it := 0; it < r.cfg.Iterations; it++ {
		base := uint64(it) * uint64(ants)
		objective.ParallelFor(r.workers, ants, func(k int) {
			sc := r.getScratch()
			tourLens[k] = r.construct(chunks[k][0], chunks[k][1], xrand.New(seed, base+uint64(k)), sc)
			r.scratch.Put(sc)
		})
		iterBest := 0
		for k := 1; k < ants; k++ {
			if tourLens[k] < tourLens[iterBest] {
				iterBest = k
			}
		}
		// Combined iteration quality: Eq. 8 makespan over the whole batch.
		combined := r.mx.MakespanOf(r.tour, busy)
		if combined < r.bestLen {
			r.bestLen = combined
			r.bestTour = append(r.bestTour[:0], r.tour...)
		}
		r.evaporate()
		// Eq. 9/10: every ant deposits Q/L_k along its own chunk's edges.
		for k := 0; k < ants; k++ {
			r.depositChunk(chunks[k][0], chunks[k][1], r.cfg.Q/tourLens[k])
		}
		// Eq. 11: elitist reinforcement of the iteration-best ant's tour.
		r.depositChunk(chunks[iterBest][0], chunks[iterBest][1], r.cfg.Q/tourLens[iterBest])
		if !r.dense {
			// The vector layout refreshes its K≪n·m cached powers in one pass.
			for j := range r.bVM {
				r.bVMAlpha[j] = math.Pow(r.bVM[j], r.cfg.Alpha)
			}
		}
	}
	return r.bestTour
}

// construct builds one ant's tour for cloudlets [lo,hi) into r.tour[lo:hi]
// and returns its quality L_k per Eq. 8: the maximum over VMs of the summed
// expected execution times the ant routed to that VM. rnd is the ant's own
// child stream and sc its worker-private scratch; the incremental
// evaluator's epoch reset keeps scoring proportional to the chunk, not the
// fleet.
func (r *run) construct(lo, hi int, rnd *rand.Rand, sc *antScratch) float64 {
	tabu := sc.tabu
	for v := range tabu {
		tabu[v] = false
	}
	free := r.m
	// Alg. 2 line 4: the ant starts at a random VM, which is marked visited.
	start := rnd.Intn(r.m)
	tabu[start] = true
	free--
	if free == 0 { // single-VM fleet
		var sum float64
		for i := lo; i < hi; i++ {
			r.tour[i] = start
			sum += r.mx.Exec(i, start)
		}
		return sum
	}
	e := sc.eval
	e.Reset()
	for i := lo; i < hi; i++ {
		j := r.pick(i, tabu, sc.cum, rnd)
		r.tour[i] = j
		e.Assign(i, j)
		tabu[j] = true
		free--
		if free == 0 {
			// Constraint satisfied for every VM: start a fresh visiting round.
			for v := range tabu {
				tabu[v] = false
			}
			free = r.m
		}
	}
	return e.Makespan()
}

// pick samples a VM for cloudlet i by Eq. 5's probabilistic transition rule,
// restricted to VMs outside the tabu list. Weights are b^α·η^β — the g^α
// factor of the true τ^α·η^β is shared by every candidate and cancels in
// the normalization below.
//
// The roulette is prefix-sum form: cum[j] holds the running weight total
// through VM j (tabu VMs contribute exactly 0), and the draw resolves with
// an upper-bound search for the first cum[j] > x. Because cum strictly
// increases at j exactly when weight j is positive, the selected VM always
// carries positive weight and is never tabu. Every fill adds its weights in
// ascending VM order, the order that pins placements bit for bit
// (DESIGN.md §14).
func (r *run) pick(i int, tabu []bool, cum []float64, rnd interface{ Float64() float64 }) int {
	cum = cum[:r.m]
	var total float64
	switch {
	case r.dense && r.etaCls != nil:
		// Hot path: mask, multiply, and accumulate the whole candidate row in
		// one pass over the cached b^α and η^β views.
		ba := r.bAlpha[i*r.m : (i+1)*r.m]
		eta := r.etaCls[i*r.k : (i+1)*r.k]
		total = weightedCum(ba, eta, r.cls, tabu, cum)
	case r.dense:
		ba := r.bAlpha[i*r.m : (i+1)*r.m]
		for j := 0; j < r.m; j++ {
			var w float64
			if !tabu[j] {
				w = ba[j] * r.eta(i, j)
			}
			total += w
			cum[j] = total
		}
	default:
		for j := 0; j < r.m; j++ {
			var w float64
			if !tabu[j] {
				w = r.bVMAlpha[j] * r.eta(i, j)
			}
			total += w
			cum[j] = total
		}
	}
	if total <= 0 || math.IsInf(total, 1) || math.IsNaN(total) {
		// Degenerate weights (all under/overflowed): fall back to the first
		// allowed VM, keeping the run deterministic.
		for j := 0; j < r.m; j++ {
			if !tabu[j] {
				return j
			}
		}
		return 0
	}
	x := rnd.Float64() * total
	if j := rouletteSearch(cum, x); j < r.m {
		return j
	}
	// Float round-off (x rounded up to the total): return the last allowed VM.
	for j := r.m - 1; j >= 0; j-- {
		if !tabu[j] {
			return j
		}
	}
	return 0
}

// rouletteSearch is the slot search pick resolves each draw with. It is
// always searchCum; the indirection lets a test plant an off-by-one search
// and prove the placement vector notices.
var rouletteSearch = searchCum

// searchCum returns the roulette slot for x on the cumulative-weight array
// cum: the smallest j with cum[j] > x, i.e. the number of leading entries
// ≤ x, and len(cum) when every entry is ≤ x. cum must be non-decreasing and
// NaN-free, which weightedCum and pick's fills guarantee once pick has
// rejected a 0, +Inf, or NaN total.
//
// It is a branchless binary upper-bound search: the half-step is a
// data-dependent select (CMOV on amd64), so the O(log m) probes run
// without a mispredictable branch.
func searchCum(cum []float64, x float64) int {
	// Invariant: every entry before base is ≤ x, every entry from base+n on
	// is > x.
	base, n := 0, len(cum)
	for n > 1 {
		half := n / 2
		if cum[base+half-1] <= x {
			base += half
		}
		n -= half
	}
	if n == 1 && cum[base] <= x {
		base++
	}
	return base
}

// weightedCum fuses Eq. 5's masked weight row with its prefix sum: VM j
// weighs ba[j]·eta[cls[j]], or exactly 0 when tabu[j], and cum[j] receives
// the running total, which is returned. ba, cls, and tabu must have at
// least len(cum) entries; eta is indexed by class id.
//
// The loop is unrolled 4x but keeps one accumulator fed in ascending VM
// order: float addition is not associative, and this sum decides
// placements, so unrolling may only remove loop overhead and bounds checks.
// The zero of a tabu VM is added like any other weight so the accumulator
// sees the same operations as the plain loop.
func weightedCum(ba, eta []float64, cls []int32, tabu []bool, cum []float64) float64 {
	n := len(cum)
	ba = ba[:n]
	cls = cls[:n]
	tabu = tabu[:n]
	var acc float64
	j := 0
	for ; j+4 <= n; j += 4 {
		var w0, w1, w2, w3 float64
		if !tabu[j] {
			w0 = ba[j] * eta[cls[j]]
		}
		if !tabu[j+1] {
			w1 = ba[j+1] * eta[cls[j+1]]
		}
		if !tabu[j+2] {
			w2 = ba[j+2] * eta[cls[j+2]]
		}
		if !tabu[j+3] {
			w3 = ba[j+3] * eta[cls[j+3]]
		}
		acc += w0
		cum[j] = acc
		acc += w1
		cum[j+1] = acc
		acc += w2
		cum[j+2] = acc
		acc += w3
		cum[j+3] = acc
	}
	for ; j < n; j++ {
		var w float64
		if !tabu[j] {
			w = ba[j] * eta[cls[j]]
		}
		acc += w
		cum[j] = acc
	}
	return acc
}

// evaporate applies Eq. 9's decay τ ← (1−ρ)τ by scaling the global factor
// g in O(1). When g approaches underflow it is folded back into the base
// pheromone cells (rare; see renormThreshold).
func (r *run) evaporate() {
	r.g *= 1 - r.cfg.Rho
	if r.g >= renormThreshold {
		return
	}
	if r.dense {
		for idx := range r.b {
			r.b[idx] *= r.g
			r.bAlpha[idx] = math.Pow(r.b[idx], r.cfg.Alpha)
		}
	} else {
		for j := range r.bVM {
			r.bVM[j] *= r.g
		}
	}
	r.g = 1
}

// depositChunk adds delta pheromone along the current tour's edges for
// cloudlets [lo,hi): τ += delta means b += delta/g in the factored store.
func (r *run) depositChunk(lo, hi int, delta float64) {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return
	}
	du := delta / r.g
	if !r.dense {
		for i := lo; i < hi; i++ {
			r.bVM[r.tour[i]] += du
		}
		return
	}
	for i := lo; i < hi; i++ {
		idx := i*r.m + r.tour[i]
		r.b[idx] += du
		r.bAlpha[idx] = math.Pow(r.b[idx], r.cfg.Alpha)
	}
}

func init() {
	sched.Register("aco", func() sched.Scheduler { return Default() })
	sched.DeclareTraits("aco", sched.Traits{Stochastic: true, Parallel: true})
}

// TourLength exposes the internal tour-quality function (Eq. 8) for tests
// and ablations: the estimated makespan of an assignment, i.e. the maximum
// over VMs of the summed expected execution times (Eq. 6) routed to it.
func TourLength(assignments []sched.Assignment) float64 {
	return sched.EstimatedMakespan(assignments)
}
