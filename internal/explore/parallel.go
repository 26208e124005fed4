package explore

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// CheckParallel is the sharded parallel counterpart of Check: the same
// bounded verification of the MCA consensus property, run as a
// level-ordered breadth-first exploration partitioned across workers.
// The canonical-state space is hash-partitioned: each worker owns the
// shard of states whose key hashes to it, keeps that shard's seen-set
// without locking, and expands only states it owns.
//
// The frontier is pipelined: there is no central coordinator
// gathering and redistributing each level. Shard workers are
// persistent goroutines that stream successor batches directly to
// their owners' inboxes while still expanding, stamped with the level
// they belong to; a shard merges its next-level bucket as batches
// arrive and starts the level as soon as every peer has signalled
// end-of-level. Stop decisions (violation, budget, cancellation,
// completion) are made exactly once per level by whichever shard
// finishes it last, from that level's complete results — so the
// decision point, and with it the set of explored states, is
// worker-count independent.
//
// The verdict is deterministic in the worker count:
//
//   - levels impose a global exploration order, and stop decisions are
//     taken at level granularity from complete level data, so the set
//     of states examined before a stop is worker-count independent;
//   - within a level, each shard sorts its bucket into a fixed order
//     before processing, and violations are merged with a fixed
//     tie-break, so the reported counterexample is stable;
//   - oscillations are detected after the frontier drains, by finding a
//     strongly connected component of the explored state graph that
//     contains a state-changing transition — the graph-level equivalent
//     of the serial checker's "state repeats with progress made" path
//     check — and the witness cycle is chosen deterministically.
//
// Verdicts agree with the serial checker on exhausted state spaces,
// with one deliberate exception: the paper's val-bound assertion is
// path-dependent, and when several same-length paths reach a state the
// serial DFS checks whichever its traversal order happens to keep
// while the sharded frontier always keeps the most-violating (highest
// effective-change) path — so CheckParallel can flag a bound violation
// the serial checker's order-dependent pruning misses, never the
// reverse. Inconclusive runs report Exhausted=false, with
// Verdict.Capped distinguishing budget-capped runs from cancelled
// ones. Options.DisableVisitedSet (the serial checker's memoization
// ablation) is not supported here and is ignored: the hash-partitioned
// seen-set is what shards the state space, so the sharded frontier
// cannot run without it. The MaxStates budget is enforced at level
// granularity — a level in flight completes before the stop, so
// Verdict.States reports the true explored count, which may overshoot
// the cap by up to one frontier width (the price of keeping the
// stopping point worker-count independent). Verdict.MaxDepth is the
// deepest level that contained a new distinct state — the maximum BFS
// distance explored.
func CheckParallel(agents []*mca.Agent, g *graph.Graph, opts Options, workers int) Verdict {
	v, _, _ := CheckParallelFrom(agents, g, opts, workers, nil, false)
	return v
}

// CheckParallelFrom is CheckParallel with checkpoint/resume: a non-nil
// prior run state restores a budget-capped run (seen set, frontier,
// transition log) and continues it at prior.NextLevel instead of
// restarting, and capture asks for a new run state back when this run
// itself stops on the MaxStates budget (nil otherwise). The resumed
// verdict is identical — violation, trace, state count, depth — to the
// same run executed without interruption, at any worker count, because
// the restored cut is exactly the state a fresh run would hold at that
// level boundary. The error is non-nil only for a structurally invalid
// prior; semantic compatibility (same scenario, same bounds) is the
// caller's contract — see engine.Checkpoint.
func CheckParallelFrom(agents []*mca.Agent, g *graph.Graph, opts Options, workers int, prior *RunState, capture bool) (Verdict, *RunState, error) {
	if len(agents) == 0 {
		return Verdict{OK: true, Exhausted: true}, nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts = opts.withDefaults(g, agents[0].Items())
	if opts.Cancel != nil && opts.Cancel() {
		return Verdict{}, nil, nil // cancelled before exploration; inconclusive
	}
	if prior != nil && opts.MaxStates > 0 && prior.States >= opts.MaxStates {
		// The prior run already spent this budget: exploring even one
		// more level would overshoot what the same verification executed
		// uninterrupted at this budget could reach, breaking resume
		// equivalence. Re-cap immediately with the prior verdict; the
		// run state passes through unchanged so a later resume with a
		// raised budget still works.
		v := Verdict{States: prior.States, MaxDepth: prior.MaxDepth, Capped: true}
		var next *RunState
		if capture {
			next = prior
		}
		return v, next, nil
	}

	// Initial transition: all agents bid and broadcast.
	net0 := netsim.New(g, false)
	if opts.QueueDepth > 0 {
		net0.LimitQueueDepth(opts.QueueDepth)
	}
	for _, a := range agents {
		if a.BidPhase() {
			net0.BroadcastAgent(a)
		}
	}
	states0 := saveStates(agents)

	ps := &pipeline{workers: workers, opts: opts}
	ps.shards = make([]*shardWorker, workers)
	for i := range ps.shards {
		ps.shards[i] = &shardWorker{
			self:     i,
			replicas: cloneAgents(agents),
		}
		ps.shards[i].keys.interval = crosscheckInterval
	}

	for _, s := range ps.shards {
		s.scratch = net0.Clone()
	}

	// Disk spill is best-effort: if the per-run temp directory cannot
	// be created the check simply runs in-core (identical verdict).
	// The directory is removed on every exit path, cancellation
	// included.
	if opts.SpillDir != "" {
		if runDir, err := os.MkdirTemp(opts.SpillDir, "mcaspill-"); err == nil {
			defer os.RemoveAll(runDir)
			for _, s := range ps.shards {
				s.spill = &spillStore{dir: runDir, shard: s.self, threshold: opts.SpillStates}
			}
		}
	}

	if prior != nil {
		if err := ps.restore(prior, workers); err != nil {
			return Verdict{}, nil, err
		}
	} else {
		rootKey := ps.shards[0].keys.key(ps.shards[0].replicas, net0)
		rootNode := ps.shards[0].arena.alloc()
		rootNode.key = rootKey
		root := workItem{
			node:   rootNode,
			buf:    net0.AppendState(encodeStates(agents, nil)),
			routeH: routeSeed,
		}
		owner := shardOf(rootKey, workers)
		ps.shards[owner].bucketInto(0, []workItem{root})
		ps.level(0).routed = 1
	}

	var wg sync.WaitGroup
	for _, s := range ps.shards {
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			w.run(ps)
		}(s)
	}
	wg.Wait()

	verdict := ps.assemble(agents, states0, net0)
	var next *RunState
	if capture && verdict.Capped {
		next = ps.captureRunState(&verdict)
	}
	if err := ps.spillError(); err != nil {
		// Exact dedup was compromised mid-run (spill segment unreadable
		// or torn); nothing derived from this pipeline can be trusted.
		return Verdict{}, nil, err
	}
	return verdict, next, nil
}

// routeSeed is the FNV-1a offset basis used for route fingerprints.
const routeSeed = 14695981039346656037

// streamBatchSize is how many successors a shard accumulates per
// destination before streaming the batch to the owner's inbox.
const streamBatchSize = 128

// pathNode is one node of the breadth-first exploration tree: the state
// reached, the delivery that reached it, and its parent. Paths share
// prefixes, so the retained tree costs O(states); nodes live in
// per-shard arenas (stable pointers, no per-state allocation), and a
// counterexample is reconstructed by replaying the root-to-node
// delivery sequence.
type pathNode struct {
	parent  *pathNode
	edge    netsim.Edge
	consume bool
	depth   int
	changes int
	key     [2]uint64
}

// workItem is a frontier entry: a reached state — agent states AND
// in-flight messages packed into one pointer-free byte buffer — plus a
// deterministic route fingerprint used only for tie-breaking. Keeping
// the frontier free of live Networks matters twice over: successors
// are produced by appending to a recycled buffer instead of cloning a
// network, and the garbage collector never scans the frontier (the
// buffers hold no pointers). Buffers are recycled through the owning
// shard's pool once the item has been expanded or deduplicated.
type workItem struct {
	node   *pathNode
	buf    []byte
	routeH uint64
}

// stepRec is one delivery of a replayable counterexample path.
type stepRec struct {
	edge    netsim.Edge
	consume bool
}

// edgeRec is one explored transition of the state graph, kept for the
// end-of-run oscillation analysis.
type edgeRec struct {
	from, to  [2]uint64
	step      stepRec
	didChange bool
}

type violationRec struct {
	kind   ViolationKind
	label  string
	node   *pathNode
	routeH uint64
}

// levelDecision is the per-level verdict of the pipeline: what the last
// shard to finish a level decided the fleet should do next.
type levelDecision int8

const (
	decisionPending  levelDecision = iota // level not fully merged yet
	decisionContinue                      // proceed to the next level
	decisionStop                          // stop: violation, budget, cancel, or drained frontier
)

// levelStat accumulates one level's results. routed is written by the
// producers of the level (all shards processing the previous level)
// and read only after every producer has finished; the remaining
// fields are written under mu by the shards finishing the level and
// read only after the level's decision is published (which
// happens-before any later read via the done-marker channel edges).
type levelStat struct {
	routed     int // items routed into this level's buckets
	finished   int // shards that completed processing this level
	newStates  int
	cumStates  int // total distinct states through this level
	violations []violationRec
	decision   levelDecision
	chosen     *violationRec
	cancelled  bool
	capped     bool
	completed  bool
}

// pipeline is the shared state of one CheckParallel run.
type pipeline struct {
	workers int
	opts    Options
	shards  []*shardWorker
	// startLevel and baseMaxDepth are non-zero only on resumed runs:
	// exploration begins at startLevel, and baseMaxDepth carries the
	// prior run's deepest productive level into the final verdict.
	startLevel   int
	baseMaxDepth int
	mu           sync.Mutex // guards levels growth and per-level merging
	levels       []*levelStat

	// spillMu guards spillErr: the first spill-segment read failure any
	// shard hits. Segment loss breaks exact dedup, so the run must end
	// in a hard error — never a wrong verdict, never a panic.
	spillMu  sync.Mutex
	spillErr error
}

// failSpill records the first spill-segment failure; decide() turns it
// into a stop and CheckParallelFrom surfaces it as the run's error.
func (ps *pipeline) failSpill(err error) {
	ps.spillMu.Lock()
	if ps.spillErr == nil {
		ps.spillErr = err
	}
	ps.spillMu.Unlock()
}

// spillError returns the recorded spill failure, if any.
func (ps *pipeline) spillError() error {
	ps.spillMu.Lock()
	defer ps.spillMu.Unlock()
	return ps.spillErr
}

// restore rebuilds the shards from a prior run state: tree nodes are
// resurrected into one backing slice (kept alive by the sealed tables'
// pointers into it), the seen set is re-routed to its owning shards'
// sealed tables by key — so restoration works at any worker count —
// the frontier is re-bucketed for the start level, the transition log
// lands in shard 0 (the oscillation analysis concatenates all logs
// anyway), and the completed-level ladder is prefilled so the workers'
// decision reads and the budget math see the prior run's cut.
func (ps *pipeline) restore(prior *RunState, workers int) error {
	if err := prior.validate(); err != nil {
		return err
	}
	nodes := make([]pathNode, len(prior.Nodes))
	for i := range prior.Nodes {
		rn := &prior.Nodes[i]
		n := &nodes[i]
		n.key = rn.Key
		if rn.Parent >= 0 {
			n.parent = &nodes[rn.Parent]
		}
		n.edge = netsim.Edge{From: mca.AgentID(rn.From), To: mca.AgentID(rn.To)}
		n.consume = rn.Consume
		n.depth = int(rn.Depth)
		n.changes = int(rn.Changes)
	}
	for i := 0; i < prior.SeenCount; i++ {
		n := &nodes[i]
		ps.shards[shardOf(n.key, workers)].sealed.insert(n.key, n)
	}
	ps.startLevel = prior.NextLevel
	ps.baseMaxDepth = prior.MaxDepth
	for i := range prior.Frontier {
		it := &prior.Frontier[i]
		n := &nodes[it.Node]
		w := ps.shards[shardOf(n.key, workers)]
		w.bucketInto(ps.startLevel, []workItem{{
			node:   n,
			buf:    append([]byte(nil), it.State...),
			routeH: it.RouteH,
		}})
	}
	ps.level(ps.startLevel).routed = len(prior.Frontier)
	for i := range prior.Edges {
		e := &prior.Edges[i]
		ps.shards[0].edges.append(edgeRec{
			from: e.From, to: e.To,
			step: stepRec{
				edge:    netsim.Edge{From: mca.AgentID(e.EdgeFrom), To: mca.AgentID(e.EdgeTo)},
				consume: e.Consume,
			},
			didChange: e.DidChange,
		})
	}
	for l := 0; l < ps.startLevel; l++ {
		ls := ps.level(l)
		ls.decision = decisionContinue
		ls.finished = ps.workers
	}
	ps.level(ps.startLevel - 1).cumStates = prior.States
	return nil
}

// captureRunState snapshots a budget-capped run at its level-boundary
// cut, after the worker fleet has joined. The cut is exact: every
// worker exits only after draining all end-of-level markers for the
// stop level, and each peer's streamed batches precede its marker in
// the FIFO inboxes, so the stop+1 buckets hold the complete routed
// frontier and every processed state has been sealed. The seen set is
// serialized sorted by canonical key and the frontier and edge log in
// fixed orders, so the snapshot itself is deterministic up to the
// producer-side pruning races CheckParallel already tolerates (a racy
// unpruned duplicate is discarded by arrival dedup on resume exactly
// as it would have been in the uninterrupted run).
func (ps *pipeline) captureRunState(v *Verdict) *RunState {
	stop := -1
	for l := range ps.levels {
		if ps.levels[l].decision == decisionStop {
			stop = l
			break
		}
	}
	if stop < 0 {
		return nil
	}
	rs := &RunState{NextLevel: stop + 1, States: v.States, MaxDepth: v.MaxDepth}

	type seenEnt struct {
		key  [2]uint64
		node *pathNode
	}
	var seen []seenEnt
	for _, s := range ps.shards {
		if err := s.spill.forEach(func(k [2]uint64, n *pathNode) { seen = append(seen, seenEnt{k, n}) }); err != nil {
			// An unreadable segment means the seen set cannot be
			// reconstructed; the checkpoint would resume wrong, so none
			// is produced and the run reports the failure instead.
			ps.failSpill(err)
			return nil
		}
		s.sealed.forEach(func(k [2]uint64, n *pathNode) { seen = append(seen, seenEnt{k, n}) })
		s.fresh.forEach(func(k [2]uint64, n *pathNode) { seen = append(seen, seenEnt{k, n}) })
	}
	sort.Slice(seen, func(i, j int) bool { return keyLess(seen[i].key, seen[j].key) })

	idx := make(map[*pathNode]int32, len(seen))
	rs.Nodes = make([]RunNode, 0, len(seen))
	for _, e := range seen {
		idx[e.node] = int32(len(rs.Nodes))
		rs.Nodes = append(rs.Nodes, runNodeOf(e.node, -1))
	}
	// Parent links resolve entirely within the seen set: a seen node's
	// parent was processed one level earlier, and a frontier node's
	// parent was processed at the stop level.
	for i, e := range seen {
		if e.node.parent != nil {
			rs.Nodes[i].Parent = idx[e.node.parent]
		}
	}
	rs.SeenCount = len(rs.Nodes)

	var items []workItem
	for _, s := range ps.shards {
		if stop+1 < len(s.buckets) {
			items = append(items, s.buckets[stop+1]...)
		}
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := &items[i], &items[j]
		if a.node.key != b.node.key {
			return keyLess(a.node.key, b.node.key)
		}
		if a.node.changes != b.node.changes {
			return a.node.changes > b.node.changes
		}
		if a.routeH != b.routeH {
			return a.routeH < b.routeH
		}
		return string(a.buf) < string(b.buf)
	})
	rs.Frontier = make([]RunItem, 0, len(items))
	for i := range items {
		it := &items[i]
		parent := int32(-1)
		if it.node.parent != nil {
			parent = idx[it.node.parent]
		}
		node := int32(len(rs.Nodes))
		rs.Nodes = append(rs.Nodes, runNodeOf(it.node, parent))
		rs.Frontier = append(rs.Frontier, RunItem{
			Node:   node,
			RouteH: it.routeH,
			State:  append([]byte(nil), it.buf...),
		})
	}

	total := 0
	for _, s := range ps.shards {
		total += s.edges.total
	}
	rs.Edges = make([]RunEdge, 0, total)
	for _, s := range ps.shards {
		for _, b := range s.edges.blocks {
			for i := range b {
				e := &b[i]
				rs.Edges = append(rs.Edges, RunEdge{
					From: e.from, To: e.to,
					EdgeFrom: int32(e.step.edge.From), EdgeTo: int32(e.step.edge.To),
					Consume: e.step.consume, DidChange: e.didChange,
				})
			}
		}
	}
	sort.Slice(rs.Edges, func(i, j int) bool {
		a, b := &rs.Edges[i], &rs.Edges[j]
		if a.From != b.From {
			return keyLess(a.From, b.From)
		}
		if a.To != b.To {
			return keyLess(a.To, b.To)
		}
		if a.EdgeFrom != b.EdgeFrom {
			return a.EdgeFrom < b.EdgeFrom
		}
		if a.EdgeTo != b.EdgeTo {
			return a.EdgeTo < b.EdgeTo
		}
		return a.Consume && !b.Consume
	})
	return rs
}

// runNodeOf converts a tree node to its serialized form.
func runNodeOf(n *pathNode, parent int32) RunNode {
	return RunNode{
		Key:     n.key,
		Parent:  parent,
		From:    int32(n.edge.From),
		To:      int32(n.edge.To),
		Consume: n.consume,
		Depth:   int32(n.depth),
		Changes: int32(n.changes),
	}
}

// level returns the stat record for a level, growing the ladder on
// demand.
func (ps *pipeline) level(l int) *levelStat {
	ps.mu.Lock()
	for len(ps.levels) <= l {
		ps.levels = append(ps.levels, &levelStat{})
	}
	ls := ps.levels[l]
	ps.mu.Unlock()
	return ls
}

// addRouted credits n items routed into level l.
func (ps *pipeline) addRouted(l, n int) {
	ls := ps.level(l)
	ps.mu.Lock()
	ls.routed += n
	ps.mu.Unlock()
}

// finishLevel merges one shard's level results; the last shard to
// finish the level makes the level's stop/continue decision from the
// complete data. The decision is published before the caller sends its
// done markers, so every peer observes it once it holds all markers.
func (ps *pipeline) finishLevel(l int, newStates int, viols []violationRec) {
	ls := ps.level(l)
	ps.mu.Lock()
	ls.newStates += newStates
	ls.violations = append(ls.violations, viols...)
	ls.finished++
	last := ls.finished == ps.workers
	ps.mu.Unlock()
	if last {
		ps.decide(l)
	}
}

// decide makes the stop/continue decision for a fully merged level.
// All of the level's processing — including every routed count for the
// next level — is complete, so the decision is a pure function of
// worker-count-independent data. Precedence mirrors the
// level-synchronous loop this replaced: violations first, then
// cancellation, then the state budget, then frontier exhaustion.
func (ps *pipeline) decide(l int) {
	ls, next := ps.level(l), ps.level(l+1)
	prevCum := 0
	if l > 0 {
		prevCum = ps.level(l - 1).cumStates
	}
	ls.cumStates = prevCum + ls.newStates
	switch {
	case ps.spillError() != nil:
		// A lost spill segment invalidates the level's dedup, and with
		// it every count and violation derived this level; stop as a
		// cancelled run — the verdict is discarded for the recorded
		// error either way.
		ls.cancelled = true
		ls.decision = decisionStop
	case len(ls.violations) > 0:
		// All violations in a level sit at the same depth; break ties
		// deterministically so the counterexample is stable across
		// worker counts and runs.
		sort.Slice(ls.violations, func(i, j int) bool {
			a, b := ls.violations[i], ls.violations[j]
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			if a.node.key != b.node.key {
				return keyLess(a.node.key, b.node.key)
			}
			return a.routeH < b.routeH
		})
		ls.chosen = &ls.violations[0]
		ls.decision = decisionStop
	case ps.opts.Cancel != nil && ps.opts.Cancel():
		ls.cancelled = true
		ls.decision = decisionStop
	case ls.cumStates >= ps.opts.MaxStates:
		ls.capped = true
		ls.decision = decisionStop
	case next.routed == 0:
		ls.completed = true
		ls.decision = decisionStop
	default:
		ls.decision = decisionContinue
	}
}

// assemble builds the final Verdict after every worker has exited.
func (ps *pipeline) assemble(agents []*mca.Agent, states0 []mca.AgentState, net0 *netsim.Network) Verdict {
	verdict := &Verdict{MaxDepth: ps.baseMaxDepth}
	var stop *levelStat
	for l := 0; l < len(ps.levels); l++ {
		ls := ps.levels[l]
		if ls.decision == decisionPending {
			break
		}
		// MaxDepth counts the deepest level that processed a new distinct
		// state. Routed-item counts would be one alternative, but they
		// are racy by design (producer-side pruning may or may not see a
		// peer's freshly sealed states), while the level at which each
		// distinct state is first processed is its BFS distance — a pure
		// function of the scenario.
		if ls.newStates > 0 {
			verdict.MaxDepth = l
		}
		verdict.States = ls.cumStates
		if ls.decision == decisionStop {
			stop = ls
			break
		}
	}
	cancelled, capped, completed := false, false, false
	var chosen *violationRec
	if stop != nil {
		cancelled, capped, completed = stop.cancelled, stop.capped, stop.completed
		chosen = stop.chosen
	}
	verdict.Exhausted = !cancelled && verdict.States < ps.opts.MaxStates
	verdict.Capped = capped
	for _, s := range ps.shards {
		s.sealed.addStats(&verdict.Store)
		s.fresh.addStats(&verdict.Store)
		s.spill.addToStats(&verdict.Store)
	}
	if chosen != nil {
		verdict.Violation = chosen.kind
		verdict.Trace = replayTrace(cloneAgents(agents), states0, net0, treeSteps(chosen.node), chosen.label)
	} else if completed && verdict.Exhausted {
		total := 0
		for _, s := range ps.shards {
			total += s.edges.total
		}
		allEdges := make([]edgeRec, 0, total)
		for _, s := range ps.shards {
			for _, b := range s.edges.blocks {
				allEdges = append(allEdges, b...)
			}
		}
		nodes, err := mergeNodes(ps.shards)
		if err != nil {
			// The oscillation pass needs the complete seen set; with a
			// segment unreadable the verdict is voided by the recorded
			// error, so skip the analysis.
			ps.failSpill(err)
		} else if osc := findOscillation(allEdges, nodes); osc != nil {
			verdict.Violation = ViolationOscillation
			verdict.Trace = replayTrace(cloneAgents(agents), states0, net0, osc.steps, osc.label)
		}
	}
	verdict.OK = verdict.Violation == ViolationNone && verdict.Exhausted
	return *verdict
}

// pipeMsg is one inbox message: a batch of frontier items for a level,
// or an end-of-level marker.
type pipeMsg struct {
	level int
	items []workItem // nil for markers
	done  bool       // sender finished processing `level`
}

// inbox is an unbounded multi-producer single-consumer queue. Pushes
// never block, which is what makes the pipeline deadlock-free: a shard
// deep in its level can keep streaming batches to a peer that is also
// mid-level and not yet draining.
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []pipeMsg
	head int
}

func (ib *inbox) push(m pipeMsg) {
	ib.mu.Lock()
	if ib.cond == nil {
		ib.cond = sync.NewCond(&ib.mu)
	}
	ib.msgs = append(ib.msgs, m)
	ib.mu.Unlock()
	ib.cond.Signal()
}

func (ib *inbox) pop() pipeMsg {
	ib.mu.Lock()
	if ib.cond == nil {
		ib.cond = sync.NewCond(&ib.mu)
	}
	for ib.head == len(ib.msgs) {
		ib.cond.Wait()
	}
	m := ib.msgs[ib.head]
	ib.msgs[ib.head] = pipeMsg{} // release references
	ib.head++
	if ib.head == len(ib.msgs) {
		ib.msgs = ib.msgs[:0]
		ib.head = 0
	}
	ib.mu.Unlock()
	return m
}

// shardWorker owns one hash shard of the canonical-state space. The
// seen-set is split in two to allow lock-free cross-shard reads:
// `sealed` holds states processed in *earlier* levels and is only
// merged once every peer has finished the previous level, so any
// worker may consult any shard's sealed set while generating
// successors (pruning most already-known states at the producer,
// before allocating a frontier item); `fresh` collects the states
// processed in the current level and is touched only by the owning
// worker. Everything else (replicas, scratch buffers, arenas, pools)
// is worker-private, so level processing needs no locks — only the
// inbox handoffs and the per-level merge in the shared pipeline.
type shardWorker struct {
	self     int // this worker's shard index
	replicas []*mca.Agent
	keys     keyScratch
	// spill is the shard's disk residence for sealed states; nil unless
	// Options.SpillDir is set.
	spill   *spillStore
	snap    netsim.QueueSnapshot
	edgeBuf []netsim.Edge
	pendBuf []netsim.Edge
	sealed  sealedTable
	fresh   stateTable
	arena   nodeArena
	inbox   inbox
	// scratch is the shard's single live network: every frontier item's
	// queue state is decoded into it for expansion and re-encoded for
	// the item's successors. saveSlot holds the delivery receiver's
	// pre-transition state — only the receiver mutates, so restoring it
	// (instead of re-decoding every agent from the item buffer) keeps
	// the other replicas' Rev counters stable and the per-agent digest
	// cache hot.
	scratch  *netsim.Network
	saveSlot mca.AgentState
	// buckets[l] collects the shard's frontier items for level l as
	// batches stream in; markers[l] counts end-of-level markers.
	buckets [][]workItem
	markers []int
	// out accumulates successors per destination shard between batch
	// flushes.
	out [][]workItem
	// bufPool recycles the state buffers of consumed frontier items,
	// and slicePool the workItem slices cycling through buckets and
	// stream batches, so steady-state expansion allocates only when the
	// frontier grows past its high-water mark.
	bufPool   [][]byte
	slicePool [][]workItem
	// edges accumulates every explored transition for the end-of-run
	// oscillation analysis, in fixed-size blocks so the log never pays
	// append-doubling copy churn. This is the memory cost of detecting
	// cycles deterministically in a BFS (the serial DFS sees them on
	// its path instead): O(states × branching) compact pointer-free
	// records, only consulted when the frontier drains without a
	// violation.
	edges edgeLog
}

// edgeLog is a chunked append-only log of edgeRecs.
type edgeLog struct {
	blocks [][]edgeRec
	total  int
}

const edgeLogBlock = 1 << 15

func (l *edgeLog) append(e edgeRec) {
	if len(l.blocks) == 0 || len(l.blocks[len(l.blocks)-1]) == edgeLogBlock {
		l.blocks = append(l.blocks, make([]edgeRec, 0, edgeLogBlock))
	}
	b := &l.blocks[len(l.blocks)-1]
	*b = append(*b, e)
	l.total++
}

// seal merges the previous level's states into the sealed set. It runs
// once every peer's end-of-level marker has arrived — but that does NOT
// make the table quiescent: a peer that collected its own marker set
// first may already be processing the next level and peeking this
// table mid-merge. That concurrency is exactly what sealedTable's
// per-slot atomic publication protocol exists for (readers tolerate
// missing the newest entries; the owner re-deduplicates arrivals), so
// seal must only ever target a sealedTable, never a plain stateTable.
func (w *shardWorker) seal() {
	w.fresh.forEach(func(k [2]uint64, n *pathNode) {
		w.sealed.insert(k, n)
	})
	w.fresh.clear()
	w.spill.maybeSpill(&w.sealed)
}

// bucketInto appends items to the shard's bucket for a level, seeding
// empty buckets from the slice pool.
func (w *shardWorker) bucketInto(level int, items []workItem) {
	for len(w.buckets) <= level {
		w.buckets = append(w.buckets, nil)
	}
	if w.buckets[level] == nil {
		if n := len(w.slicePool); n > 0 {
			w.buckets[level] = w.slicePool[n-1][:0]
			w.slicePool = w.slicePool[:n-1]
		}
	}
	w.buckets[level] = append(w.buckets[level], items...)
}

// markerCount returns how many end-of-level markers have arrived for a
// level.
func (w *shardWorker) markerCount(level int) int {
	if level < len(w.markers) {
		return w.markers[level]
	}
	return 0
}

// absorb files one inbox message, recycling drained batch slices.
func (w *shardWorker) absorb(m pipeMsg) {
	if m.done {
		for len(w.markers) <= m.level {
			w.markers = append(w.markers, 0)
		}
		w.markers[m.level]++
		return
	}
	w.bucketInto(m.level, m.items)
	w.slicePool = append(w.slicePool, m.items)
}

// run is the persistent worker loop: wait for the previous level to be
// globally complete (draining streamed batches the whole time),
// process this shard's bucket, merge results, and signal end-of-level.
func (w *shardWorker) run(ps *pipeline) {
	workers := len(ps.shards)
	for level := ps.startLevel; ; level++ {
		if level > ps.startLevel {
			// Drain the inbox until every peer has finished the previous
			// level. Batches for this level (from peers still finishing
			// it... impossible — they'd be for level+1) and for the next
			// level (from peers already past the barrier) are filed into
			// their buckets.
			for w.markerCount(level-1) < workers {
				w.absorb(w.inbox.pop())
			}
			// Every peer is past level-1, so our fresh set is final and
			// safe to merge. Peers that reached this point before us may
			// already be expanding the next level and peeking our sealed
			// table while we merge — tolerated by sealedTable's
			// publication protocol (they merely miss the newest entries
			// and route items we deduplicate on arrival).
			w.seal()
			if ps.level(level-1).decision != decisionContinue {
				return
			}
		}
		var items []workItem
		if level < len(w.buckets) {
			items = w.buckets[level]
			w.buckets[level] = nil
		}
		newStates, viols := w.processLevel(items, ps, level)
		if items != nil {
			w.slicePool = append(w.slicePool, items)
		}
		ps.finishLevel(level, newStates, viols)
		// Publish end-of-level after the merge (and a possible stop
		// decision), so a peer holding all markers always sees the
		// decision.
		for _, s := range ps.shards {
			s.inbox.push(pipeMsg{level: level, done: true})
		}
	}
}

// getBuf pops recycled storage for a successor item's state buffer.
func (w *shardWorker) getBuf() []byte {
	if n := len(w.bufPool); n > 0 {
		b := w.bufPool[n-1]
		w.bufPool = w.bufPool[:n-1]
		return b[:0]
	}
	return nil
}

// recycle returns a consumed frontier item's buffer to the pool.
func (w *shardWorker) recycle(it *workItem) {
	if it.buf != nil {
		w.bufPool = append(w.bufPool, it.buf)
		it.buf = nil
	}
}

// flush streams the accumulated batch for destination shard d, crediting
// the routed count for the items' level. Batch slice ownership moves to
// the destination shard (which recycles it into its own pools); the
// next batch draws from this shard's pool.
func (w *shardWorker) flush(ps *pipeline, d, level int) {
	batch := w.out[d]
	if len(batch) == 0 {
		return
	}
	if n := len(w.slicePool); n > 0 {
		w.out[d] = w.slicePool[n-1][:0]
		w.slicePool = w.slicePool[:n-1]
	} else {
		w.out[d] = nil
	}
	ps.addRouted(level, len(batch))
	ps.shards[d].inbox.push(pipeMsg{level: level, items: batch})
}

// processLevel runs one shard's slice of a BFS level: deduplicate
// against the shard's seen-set, check each new state for violations,
// expand its successors, and stream them to their owning shards in
// batches. Other shards' sealed sets are consulted to prune successors
// already processed in earlier levels before allocating a frontier
// item for them; the pipeline's marker protocol guarantees those
// tables are quiescent while any producer can read them.
func (w *shardWorker) processLevel(items []workItem, ps *pipeline, level int) (int, []violationRec) {
	workers := len(ps.shards)
	if len(w.out) < workers {
		w.out = make([][]workItem, workers)
	}
	opts := ps.opts
	newStates := 0
	var viols []violationRec
	// Multiple paths can reach the same state within one level; process
	// them in a fixed order so the surviving representative — and with
	// it the recorded changes count and tree path — is deterministic.
	// Higher changes first: the most-violating path represents the state.
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.node.key != b.node.key {
			return keyLess(a.node.key, b.node.key)
		}
		if a.node.changes != b.node.changes {
			return a.node.changes > b.node.changes
		}
		return a.routeH < b.routeH
	})
	nmodes := 1
	if opts.DuplicateDeliveries {
		nmodes = 2 // consume, then duplicate
	}
	// Arrival dedup against spilled entries is a sequential merge scan:
	// the items were just sorted key-ascending and the segment is key
	// sorted, so one pass of the cursor covers the whole level. Losing
	// the segment (open or read failure) breaks exact dedup, so it is
	// recorded on the pipeline and ends the run in a hard error; the
	// remainder of the level runs on for the marker protocol's sake but
	// its output is discarded.
	spillCur, spillErr := w.spill.openCursor()
	if spillErr != nil {
		ps.failSpill(spillErr)
	}
	if spillCur != nil {
		defer spillCur.close()
	}
	for i := range items {
		it := &items[i]
		if w.sealed.get(it.node.key) != nil || w.fresh.get(it.node.key) != nil ||
			(spillCur != nil && spillCur.seek(it.node.key)) {
			w.recycle(it)
			continue
		}
		if spillCur != nil && spillCur.err != nil {
			ps.failSpill(spillCur.err)
			spillCur.close()
			spillCur = nil
		}
		w.fresh.insert(it.node.key, it.node)
		newStates++

		w.scratch.DecodeState(w.restoreAgents(it.buf))
		if w.scratch.Quiescent() {
			// Quiescence: the reply-on-disagreement rule guarantees any
			// surviving disagreement still has a message in flight, so a
			// quiescent state must agree and be conflict-free.
			if !agreementOf(w.replicas) {
				viols = append(viols, violationRec{
					kind: ViolationDisagreement, label: "quiescent without agreement",
					node: it.node, routeH: it.routeH,
				})
			} else if !conflictFreeOf(w.replicas) {
				viols = append(viols, violationRec{
					kind: ViolationConflict, label: "agreement reached but bundles conflict",
					node: it.node, routeH: it.routeH,
				})
			}
			w.recycle(it)
			continue
		}
		if it.node.depth >= opts.hardLimit() {
			viols = append(viols, violationRec{
				kind:  ViolationBoundExceeded,
				label: fmt.Sprintf("still active after %d deliveries (hard limit)", it.node.depth),
				node:  it.node, routeH: it.routeH,
			})
			w.recycle(it)
			continue
		}
		if it.node.changes >= opts.Bound && !agreementOf(w.replicas) {
			// The paper's consensus assertion: after the val message
			// budget, max-consensus must hold.
			viols = append(viols, violationRec{
				kind:  ViolationBoundExceeded,
				label: fmt.Sprintf("no consensus after %d effective deliveries (bound)", it.node.changes),
				node:  it.node, routeH: it.routeH,
			})
			w.recycle(it)
			continue
		}

		w.pendBuf = w.scratch.PendingInto(w.pendBuf[:0])
		for _, e := range w.pendBuf {
			for mode := 0; mode < nmodes; mode++ {
				consume := mode == 0
				// Try the delivery on the scratch network in place and
				// roll it back afterwards; only surviving successors pay
				// for an encode into a pooled buffer.
				w.edgeBuf = affectedEdges(w.edgeBuf, w.scratch, e)
				w.scratch.Capture(&w.snap, w.edgeBuf...)
				receiver := w.replicas[e.To]
				receiver.SaveStateInto(&w.saveSlot)
				recvHash := w.keys.digest(int(e.To), receiver)
				didChange := applyDelivery(w.replicas, w.scratch, e, consume)
				key := w.keys.key(w.replicas, w.scratch)
				w.edges.append(edgeRec{
					from: it.node.key, to: key,
					step: stepRec{edge: e, consume: consume}, didChange: didChange,
				})
				d := shardOf(key, workers)
				// Producer-side pruning: a successor its owner already
				// processed (in an earlier level, or — for self-owned
				// states — this one) would be discarded on arrival;
				// skip building the frontier item. The edge above is
				// still recorded for the oscillation analysis.
				dup := ps.shards[d].sealed.peek(key) != nil
				if !dup && d == w.self {
					dup = w.fresh.peek(key) != nil
				}
				if !dup {
					changes := it.node.changes
					if didChange {
						changes++
					}
					node := w.arena.alloc()
					*node = pathNode{
						parent: it.node, edge: e, consume: consume,
						depth: it.node.depth + 1, changes: changes, key: key,
					}
					succ := workItem{
						node:   node,
						buf:    w.scratch.AppendState(encodeStates(w.replicas, w.getBuf())),
						routeH: routeHash(it.routeH, e, consume),
					}
					w.out[d] = append(w.out[d], succ)
					if len(w.out[d]) >= streamBatchSize {
						w.flush(ps, d, level+1)
					}
				}
				w.scratch.Rollback(&w.snap)
				receiver.RestoreState(w.saveSlot)
				w.keys.restoreDigest(int(e.To), receiver, recvHash)
			}
		}
		w.recycle(it)
	}
	for d := range w.out {
		w.flush(ps, d, level+1)
	}
	return newStates, viols
}

func shardOf(key [2]uint64, workers int) int {
	return int(key[0] % uint64(workers))
}

func keyLess(a, b [2]uint64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func saveStates(agents []*mca.Agent) []mca.AgentState {
	out := make([]mca.AgentState, len(agents))
	for i, a := range agents {
		out[i] = a.SaveState()
	}
	return out
}

func cloneAgents(agents []*mca.Agent) []*mca.Agent {
	out := make([]*mca.Agent, len(agents))
	for i, a := range agents {
		out[i] = a.Clone()
	}
	return out
}

// encodeStates packs every agent's mutable state into one buffer.
func encodeStates(agents []*mca.Agent, buf []byte) []byte {
	for _, a := range agents {
		buf = a.AppendState(buf)
	}
	return buf
}

// restoreAgents decodes the agent-state prefix of a frontier buffer
// into the shard's replicas, returning the network-state remainder.
func (w *shardWorker) restoreAgents(buf []byte) []byte {
	for _, a := range w.replicas {
		buf = a.DecodeState(buf)
	}
	return buf
}

// routeHash extends a path fingerprint by one delivery (FNV-1a).
func routeHash(h uint64, e netsim.Edge, consume bool) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(e.From)) * prime
	h = (h ^ uint64(e.To)) * prime
	if consume {
		h = (h ^ 1) * prime
	} else {
		h = (h ^ 2) * prime
	}
	return h
}

// treeSteps reconstructs the root-to-node delivery sequence.
func treeSteps(n *pathNode) []stepRec {
	var steps []stepRec
	for ; n != nil && n.parent != nil; n = n.parent {
		steps = append(steps, stepRec{edge: n.edge, consume: n.consume})
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}

func mergeNodes(shards []*shardWorker) (map[[2]uint64]*pathNode, error) {
	out := make(map[[2]uint64]*pathNode)
	for _, s := range shards {
		if err := s.spill.forEach(func(k [2]uint64, n *pathNode) { out[k] = n }); err != nil {
			return nil, err
		}
		s.sealed.forEach(func(k [2]uint64, n *pathNode) { out[k] = n })
		s.fresh.forEach(func(k [2]uint64, n *pathNode) { out[k] = n })
	}
	return out, nil
}

// replayTrace re-executes a delivery sequence from the initial
// (post-bid) state, recording the step labels and agent snapshots of a
// counterexample trace. Both explorers build their traces this way, so
// the hot exploration loops never materialize snapshots. replicas are
// scratch agents (mutated freely); states0/net0 are the initial state.
func replayTrace(replicas []*mca.Agent, states0 []mca.AgentState, net0 *netsim.Network, steps []stepRec, label string) *trace.Recorder {
	for i, a := range replicas {
		a.RestoreState(states0[i])
	}
	net := net0.Clone()
	rec := trace.NewRecorder()
	rec.Record(trace.Step{Label: "initial bids", Agents: agentSnapshots(replicas)})
	for _, st := range steps {
		applyDelivery(replicas, net, st.edge, st.consume)
		name := "deliver"
		if !st.consume {
			name = "duplicate-deliver"
		}
		rec.Record(trace.Step{
			Label:  fmt.Sprintf("%s %d->%d", name, st.edge.From, st.edge.To),
			Agents: agentSnapshots(replicas),
		})
	}
	rec.Record(trace.Step{Label: "VIOLATION: " + label, Agents: agentSnapshots(replicas)})
	return rec
}

// oscillation is a deterministic witness for a progress cycle.
type oscillation struct {
	steps []stepRec
	label string
}

// findOscillation searches the explored state graph for a cycle that
// contains at least one state-changing transition — the graph form of
// the serial checker's "same canonical state recurs after effective
// progress" rule. Such a cycle exists iff some strongly connected
// component contains a didChange edge. The witness is selected
// deterministically: the candidate edge minimizing (depth of its
// source, source key, target key), completed into a cycle by a
// shortest path back through the component over sorted adjacency.
//
// The analysis runs once per completed check over every recorded
// transition, so it resolves edge endpoints to dense node ids up
// front and sorts an index permutation — the graph passes then touch
// only flat int arrays.
func findOscillation(edges []edgeRec, nodes map[[2]uint64]*pathNode) *oscillation {
	if len(edges) == 0 {
		return nil
	}
	// Deterministic node indexing: sorted canonical keys.
	keys := make([][2]uint64, 0, len(nodes))
	for k := range nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	id := make(map[[2]uint64]int, len(keys))
	for i, k := range keys {
		id[k] = i
	}

	// Resolve endpoints once; -1 marks an endpoint outside the explored
	// set (possible only on budget-truncated runs).
	eu := make([]int32, len(edges))
	ev := make([]int32, len(edges))
	for i := range edges {
		u, okU := id[edges[i].from]
		v, okV := id[edges[i].to]
		if !okU || !okV {
			eu[i], ev[i] = -1, -1
			continue
		}
		eu[i], ev[i] = int32(u), int32(v)
	}

	// Deterministic adjacency: a sorted index permutation (sorting
	// 4-byte indices, not 56-byte records) ordered by the edges'
	// canonical order.
	perm := make([]int32, len(edges))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(pi, pj int) bool {
		a, b := &edges[perm[pi]], &edges[perm[pj]]
		if a.from != b.from {
			return keyLess(a.from, b.from)
		}
		if a.to != b.to {
			return keyLess(a.to, b.to)
		}
		if a.step.edge != b.step.edge {
			if a.step.edge.From != b.step.edge.From {
				return a.step.edge.From < b.step.edge.From
			}
			return a.step.edge.To < b.step.edge.To
		}
		return a.step.consume && !b.step.consume
	})
	adj := make([][]int32, len(keys)) // node -> edge indices, sorted order
	for _, ei := range perm {
		if eu[ei] >= 0 {
			adj[eu[ei]] = append(adj[eu[ei]], ei)
		}
	}

	comp := sccKosaraju(len(keys), eu, ev, adj)

	var cand *edgeRec
	for i := range edges {
		e := &edges[i]
		if !e.didChange || eu[i] < 0 || comp[eu[i]] != comp[ev[i]] {
			continue
		}
		if cand == nil || oscCandLess(e, cand, nodes) {
			cand = e
		}
	}
	if cand == nil {
		return nil
	}

	// Complete the cycle: shortest path target -> source inside the
	// component (empty for a self-loop).
	u, v := id[cand.from], id[cand.to]
	cyc := cyclePath(v, u, comp, adj, edges, ev)
	steps := append(treeSteps(nodes[cand.from]), cand.step)
	steps = append(steps, cyc...)
	return &oscillation{
		steps: steps,
		label: fmt.Sprintf("state repeats (first reached after %d deliveries): oscillation", nodes[cand.from].depth),
	}
}

func oscCandLess(a, b *edgeRec, nodes map[[2]uint64]*pathNode) bool {
	da, db := nodes[a.from].depth, nodes[b.from].depth
	if da != db {
		return da < db
	}
	if a.from != b.from {
		return keyLess(a.from, b.from)
	}
	if a.to != b.to {
		return keyLess(a.to, b.to)
	}
	return a.step.consume && !b.step.consume
}

// cyclePath finds a shortest delivery path from node v back to node u
// staying inside their strongly connected component. Adjacency is
// pre-sorted, so the BFS — and with it the witness cycle — is
// deterministic. Returns nil when v == u (self-loop cycle).
func cyclePath(v, u int, comp []int32, adj [][]int32, edges []edgeRec, ev []int32) []stepRec {
	if v == u {
		return nil
	}
	type hop struct {
		prev    int
		edgeIdx int32
	}
	from := map[int]hop{v: {prev: -1, edgeIdx: -1}}
	queue := []int{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, ei := range adj[x] {
			y := int(ev[ei])
			if comp[y] != comp[u] {
				continue
			}
			if _, seen := from[y]; seen {
				continue
			}
			from[y] = hop{prev: x, edgeIdx: ei}
			if y == u {
				var steps []stepRec
				for n := u; n != v; n = from[n].prev {
					steps = append(steps, edges[from[n].edgeIdx].step)
				}
				for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
					steps[i], steps[j] = steps[j], steps[i]
				}
				return steps
			}
			queue = append(queue, y)
		}
	}
	// Unreachable: u and v are in the same SCC by construction.
	return nil
}

// sccKosaraju labels each node with its strongly-connected-component id
// (iterative two-pass Kosaraju over pre-resolved endpoint arrays).
func sccKosaraju(n int, eu, ev []int32, adj [][]int32) []int32 {
	radj := make([][]int32, n)
	for i := range eu {
		if eu[i] >= 0 {
			radj[ev[i]] = append(radj[ev[i]], eu[i])
		}
	}
	// Pass 1: finish order on the forward graph.
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	type frame struct {
		node int32
		next int
	}
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		stack := []frame{{node: int32(s)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				y := ev[adj[f.node][f.next]]
				f.next++
				if !visited[y] {
					visited[y] = true
					stack = append(stack, frame{node: y})
				}
				continue
			}
			order = append(order, f.node)
			stack = stack[:len(stack)-1]
		}
	}
	// Pass 2: reverse graph in reverse finish order.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := int32(0)
	for i := len(order) - 1; i >= 0; i-- {
		s := order[i]
		if comp[s] != -1 {
			continue
		}
		comp[s] = nc
		stack := []int32{s}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range radj[x] {
				if comp[y] == -1 {
					comp[y] = nc
					stack = append(stack, y)
				}
			}
		}
		nc++
	}
	return comp
}
