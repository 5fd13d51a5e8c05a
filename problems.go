package l1hh

// problems.go — the problem-keyed builder table behind the unified
// front door. The paper's title promises heavy hitters *and Related
// Problems*; WithProblem selects which of them New builds, and this
// file maps each Problem to its validator (which options make sense),
// its builder (which engines back it), and its capability set (which
// interfaces the returned solver honestly satisfies):
//
//	HeavyHittersProblem  → HeavyHitters (+ Merger/Windower/… per options,
//	                       PointQuerier on known-length engines)
//	BordaProblem         → Voter; Merger when the stream length is known
//	                       (exact Borda counters are linear, so the tally
//	                       codec folds)
//	MaximinProblem       → Voter only (the maximin tally keeps a sampled
//	                       vote set or a pairwise matrix over *sampled*
//	                       votes; folding two independent samples would
//	                       double-count the sample rate, so the codec
//	                       does not fold and the engine is never Merger)
//	MinFrequencyProblem  → Extremes (MinItem)
//	MaxFrequencyProblem  → Extremes (MaxItem)
//
// Every problem inherits the rest of the stack for free: checkpoint
// container tags (7–10) restored by the universal Unmarshal, pool
// classification (known-length problem engines spill and revive through
// their marshal codecs; unknown-length ones are volatile), and the hhd
// routes built on the capability interfaces. DESIGN.md §14.

import (
	"encoding"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/minimum"
	"repro/internal/rng"
	"repro/internal/unknown"
	"repro/internal/voting"
	"repro/internal/wire"
)

// Problem selects which of the paper's problems New solves
// (WithProblem); the zero value is the (ε,ϕ)-heavy hitters problem the
// package always solved.
type Problem int

// The problems of the paper's "Related Problems" family, keyed by
// WithProblem. Each problem accepts its own option subset and exposes
// its own capability interfaces — see the package documentation's
// problem section.
const (
	// HeavyHittersProblem is the default (ε,ϕ)-heavy hitters problem
	// (Theorems 1–2, 7–8): item streams, the full option vocabulary
	// (shards, windows, sentinel), reports of every ϕ-heavy item.
	HeavyHittersProblem Problem = iota
	// BordaProblem tracks every candidate's Borda score over a stream of
	// ranking votes (Theorem 5). The engine satisfies Voter; with a known
	// stream length it is also serializable and Merger (Borda counters
	// are linear).
	BordaProblem
	// MaximinProblem tracks every candidate's maximin score over a
	// stream of ranking votes (Theorem 6). The engine satisfies Voter;
	// with a known stream length it is serializable, but never Merger —
	// the sampled-vote tally does not fold soundly.
	MaximinProblem
	// MinFrequencyProblem is the ε-Minimum problem (Algorithm 3,
	// Theorem 4): an item of approximately minimum frequency over a
	// small universe. The engine satisfies Extremes (MinItem).
	MinFrequencyProblem
	// MaxFrequencyProblem is the ε-Maximum problem (Theorem 3): the most
	// frequent item and its frequency within ε·m. The engine satisfies
	// Extremes (MaxItem).
	MaxFrequencyProblem
)

// String returns the problem's canonical name (the spelling the hhd and
// hhcli -problem flags accept).
func (p Problem) String() string {
	switch p {
	case HeavyHittersProblem:
		return "heavy-hitters"
	case BordaProblem:
		return "borda"
	case MaximinProblem:
		return "maximin"
	case MinFrequencyProblem:
		return "min-frequency"
	case MaxFrequencyProblem:
		return "max-frequency"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// ErrNotItems is returned by Insert and InsertBatch on voting engines:
// they ingest rankings through Voter.Vote, not items. Test with
// errors.Is.
var ErrNotItems = errors.New("l1hh: this solver ingests rankings, not items — assert Voter and use Vote")

// ErrNotRankings is the converse of ErrNotItems, returned by
// ranking-facing entry points (Pool.Vote) when the target engine
// ingests items: only the voting problems take ballots. Test with
// errors.Is.
var ErrNotRankings = errors.New("l1hh: this solver ingests items, not rankings — build it with WithProblem(BordaProblem) or WithProblem(MaximinProblem)")

// ErrWrongExtreme is returned by Extremes.MinItem on a
// MaxFrequencyProblem solver and by MaxItem on a MinFrequencyProblem
// solver: each engine tracks one end of the frequency range. Test with
// errors.Is.
var ErrWrongExtreme = errors.New("l1hh: this solver tracks the other frequency extreme")

// ErrEmptyStream is returned by Extremes queries before any item has
// been inserted. Test with errors.Is.
var ErrEmptyStream = errors.New("l1hh: no items inserted yet")

// Voter is the capability of the voting problems (BordaProblem,
// MaximinProblem): ranking ingest and score queries. Discovered by type
// assertion on the HeavyHitters New returns, like every capability.
// Voting engines reject Insert/InsertBatch with ErrNotItems; their
// Report maps the scored candidate list into ItemEstimates (candidate
// id as the item) so generic report plumbing still works.
type Voter interface {
	// Vote processes one ballot: a permutation of [0, Candidates()),
	// most preferred first. It returns ErrClosed after Close and an
	// error for malformed rankings; a nil error means the vote counted.
	Vote(r Ranking) error
	// Winner returns the current winner under the problem's rule and
	// its score estimate (±ε·m·n Borda, ±ε·m maximin, whp).
	Winner() (candidate int, score float64)
	// Scores returns every candidate's score estimate.
	Scores() []float64
	// List solves the (ε,ϕ)-List variant at threshold phi: all
	// candidates scoring ≥ ϕ·(maximum possible), none ≤ (ϕ−ε)·(…). Nil
	// when the stream length is unknown (Theorem 8 machinery answers
	// winner/score queries only).
	List(phi float64) []ScoredCandidate
	// Candidates returns the number of candidates n.
	Candidates() int
}

// Extremes is the capability of the frequency-extreme problems
// (MinFrequencyProblem, MaxFrequencyProblem). Exactly one of
// MinItem/MaxItem answers, matching the problem the engine was built
// for; the other returns ErrWrongExtreme — the assertion contract is
// "succeeds iff sound", and a min-tracking sketch has no sound maximum
// answer.
type Extremes interface {
	// MinItem returns an item of approximately minimum frequency with
	// its estimate and the error bar ε·m. ErrWrongExtreme on a
	// MaxFrequencyProblem engine; ErrEmptyStream before any insert.
	MinItem() (est ItemEstimate, bound float64, err error)
	// MaxItem returns an item of approximately maximum frequency with
	// its estimate and the error bar ε·m. ErrWrongExtreme on a
	// MinFrequencyProblem engine; ErrEmptyStream before any insert.
	MaxItem() (est ItemEstimate, bound float64, err error)
}

// PointQuerier is the capability of per-item frequency estimation with
// the paper's §3 additive ε·m bound. Implemented by the known-length
// heavy hitters engines, serial and sharded (hash partitioning puts all
// of an item's occurrences on one shard, so the owning shard's estimate
// is the global one); not by unknown-length solvers (staggered
// instances forget prefix mass) or windowed solvers (bucket residuals
// do not compose into a per-item bound).
type PointQuerier interface {
	// Estimate returns the frequency estimate for x over the whole
	// stream, within bound of the truth for ϕ-heavy items whp and an
	// undercount for items the table never tracked. bound is
	// ε·max(m, Len()), where m is the stream length the engine was
	// declared at, restored checkpoints included: a sampler tuned for m
	// is not more accurate mid-stream.
	Estimate(x Item) (est, bound float64)
}

// problemSpec is one row of the problem-keyed builder table: how to
// validate the option set and how to build the engine stack.
type problemSpec struct {
	validate func(*settings) error
	build    func(*settings) (HeavyHitters, error)
}

// problemSpecs is the builder table New and validateNew dispatch on,
// indexed by Problem. WithProblem bounds-checks against it, so lookups
// never miss.
var problemSpecs = [...]problemSpec{
	HeavyHittersProblem: {validate: (*settings).validateHeavyHitters, build: buildHeavyHittersProblem},
	BordaProblem:        {validate: (*settings).validateVoting, build: buildVotingProblem},
	MaximinProblem:      {validate: (*settings).validateVoting, build: buildVotingProblem},
	MinFrequencyProblem: {validate: (*settings).validateExtremes, build: buildExtremesProblem},
	MaxFrequencyProblem: {validate: (*settings).validateExtremes, build: buildExtremesProblem},
}

// votingOpts is the option vocabulary of the voting problems: the
// problem statement (ε, ϕ, δ, candidates), reproducibility (seed), and
// the known/unknown stream length switch. Everything else — shards,
// windows, universe, sentinel, observer — is heavy-hitters
// machinery with no sound meaning over ranking streams.
const votingOpts = optProblem | optEps | optPhi | optDelta | optStreamLength | optSeed | optCandidates

// validateVoting checks the option combination for BordaProblem and
// MaximinProblem.
func (st *settings) validateVoting() error {
	if !st.has(optEps) {
		return errors.New("l1hh: WithEps is required")
	}
	if !st.has(optPhi) {
		return errors.New("l1hh: WithPhi is required (the List threshold; Winner ignores it)")
	}
	if !st.has(optCandidates) {
		return fmt.Errorf("l1hh: %s needs WithCandidates", st.problem)
	}
	if st.set&^votingOpts != 0 {
		return fmt.Errorf("l1hh: %s supports WithEps, WithPhi, WithDelta, WithStreamLength, WithSeed and WithCandidates only — sharding, windows, universe and the sentinel are heavy-hitters machinery", st.problem)
	}
	if !(st.cfg.Eps > 0 && st.cfg.Eps < 1) {
		return fmt.Errorf("l1hh: eps = %v out of (0,1)", st.cfg.Eps)
	}
	if !(st.cfg.Phi > st.cfg.Eps && st.cfg.Phi <= 1) {
		return fmt.Errorf("l1hh: phi = %v out of (eps, 1]", st.cfg.Phi)
	}
	return nil
}

// extremesOpts is the option vocabulary of the frequency-extreme
// problems: the problem statement (ε, δ, universe), reproducibility
// (seed), and the stream length switch. No ϕ — an extremes solver has
// no heaviness threshold — and no candidates, shards or windows.
const extremesOpts = optProblem | optEps | optDelta | optStreamLength | optUniverse | optSeed

// validateExtremes checks the option combination for
// MinFrequencyProblem and MaxFrequencyProblem.
func (st *settings) validateExtremes() error {
	if !st.has(optEps) {
		return errors.New("l1hh: WithEps is required")
	}
	if st.has(optPhi) {
		return fmt.Errorf("l1hh: WithPhi does not apply to %s (an extremes solver has no heaviness threshold; Phi() reports 0)", st.problem)
	}
	if st.set&^extremesOpts != 0 {
		return fmt.Errorf("l1hh: %s supports WithEps, WithDelta, WithStreamLength, WithUniverse and WithSeed only — sharding, windows, candidates and the sentinel are heavy-hitters machinery", st.problem)
	}
	if !st.has(optUniverse) {
		st.cfg.Universe = 1 << 62
	}
	return nil
}

// errNotSerializable is what MarshalBinary returns on every
// unknown-length engine (heavy hitters, voting and extremes alike): the
// Theorem 7–8 machinery does not serialize.
var errNotSerializable = errors.New("l1hh: unknown-length solvers are not serializable")

// votingEngine is the method set the voting engines share: the Borda
// and maximin sketches (Theorems 5–6) and their Theorem 8 unknown-length
// wrappers.
type votingEngine interface {
	Insert(r Ranking)
	Scores() []float64
	Max() (int, float64)
	Len() uint64
	ModelBits() int64
}

// voterBase adapts a voting engine (known- or unknown-length, Borda or
// maximin) to HeavyHitters + Voter. Single-owner, like every non-sharded
// engine.
type voterBase struct {
	e votingEngine
	// tag is the engine's checkpoint tag (tagBorda or tagMaximin); 0
	// marks the unknown-length engines, which neither serialize nor
	// answer List.
	tag      byte
	n        int
	eps, phi float64
	closed   bool
}

// wrapVoter picks the adapter for a voting engine: a known-length Borda
// tally folds, so it is also a Merger; maximin and unknown-length
// engines are Voters only.
func wrapVoter(v voterBase) HeavyHitters {
	if v.tag == tagBorda {
		return &bordaHH{v}
	}
	return &v
}

// Insert implements HeavyHitters by refusing: voting engines ingest
// rankings (ErrNotItems).
func (v *voterBase) Insert(x Item) error { return ErrNotItems }

// InsertBatch implements HeavyHitters by refusing (ErrNotItems).
func (v *voterBase) InsertBatch(items []Item) error { return ErrNotItems }

// Vote implements Voter: it validates the ranking against the candidate
// arity (the sketches treat a malformed ballot as caller error) and
// counts it.
func (v *voterBase) Vote(r Ranking) error {
	if v.closed {
		return ErrClosed
	}
	if err := r.Validate(v.n); err != nil {
		return fmt.Errorf("l1hh: invalid ranking: %w", err)
	}
	v.e.Insert(r)
	return nil
}

// Winner implements Voter.
func (v *voterBase) Winner() (candidate int, score float64) { return v.e.Max() }

// Scores implements Voter.
func (v *voterBase) Scores() []float64 { return v.e.Scores() }

// List implements Voter; nil when the stream length is unknown.
func (v *voterBase) List(phi float64) []ScoredCandidate {
	if l, ok := v.e.(interface {
		List(float64) []ScoredCandidate
	}); ok {
		return l.List(phi)
	}
	return nil
}

// Candidates implements Voter.
func (v *voterBase) Candidates() int { return v.n }

// Report maps the problem's scored answer into the generic ItemEstimate
// shape (candidate id as the item) so report plumbing built for heavy
// hitters — hhd's /report, a pool tenant's View — answers for voting
// tenants too: the List at the configured ϕ when the stream length is
// known, the winner alone otherwise.
func (v *voterBase) Report() []ItemEstimate {
	if v.tag != 0 {
		sc := v.List(v.phi)
		out := make([]ItemEstimate, len(sc))
		for i, c := range sc {
			out[i] = ItemEstimate{Item: uint64(c.Candidate), F: c.Score}
		}
		return out
	}
	if v.e.Len() == 0 {
		return nil
	}
	c, s := v.e.Max()
	return []ItemEstimate{{Item: uint64(c), F: s}}
}

// Len returns the number of votes counted so far.
func (v *voterBase) Len() uint64 { return v.e.Len() }

// Eps returns the additive-error parameter ε.
func (v *voterBase) Eps() float64 { return v.eps }

// Phi returns the List threshold ϕ.
func (v *voterBase) Phi() float64 { return v.phi }

// Stats returns the unified operational snapshot.
func (v *voterBase) Stats() Stats {
	n := v.e.Len()
	return Stats{Items: n, Len: n, Eps: v.eps, Phi: v.phi, Shards: 1, ModelBits: v.e.ModelBits()}
}

// ModelBits reports the sketch size under the paper's accounting.
func (v *voterBase) ModelBits() int64 { return v.e.ModelBits() }

// MarshalBinary checkpoints the engine (tag 7 or 8): the container tag,
// then the List threshold ϕ (wrapper state the sketch codec does not
// carry) framing the sketch's own encoding. Unknown-length engines
// return an error.
func (v *voterBase) MarshalBinary() ([]byte, error) {
	if v.tag == 0 {
		return nil, errNotSerializable
	}
	blob, err := v.e.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter()
	w.F64(v.phi)
	w.Blob(blob)
	return append([]byte{v.tag}, w.Bytes()...), nil
}

// Close stops ingest; queries and checkpoints keep working. Idempotent.
func (v *voterBase) Close() error {
	v.closed = true
	return nil
}

// bordaHH is the known-length Borda engine: voterBase plus the Merger
// capability (exact Borda counters are linear, so same-configuration
// sketches fold).
type bordaHH struct{ voterBase }

// CheckMerge implements Merger without mutating either solver.
func (b *bordaHH) CheckMerge(checkpoint []byte) error {
	_, err := b.decodePeer(checkpoint)
	return err
}

// Merge implements Merger: it folds a peer's tag-7 checkpoint into the
// live tally so Winner and Scores answer for the concatenated vote
// streams. Failure is atomic.
func (b *bordaHH) Merge(checkpoint []byte) error {
	peer, err := b.decodePeer(checkpoint)
	if err != nil {
		return err
	}
	return b.e.(*voting.BordaSketch).Merge(peer)
}

// decodePeer decodes and compatibility-checks a peer checkpoint for
// merging, reporting kind and configuration mismatches as
// incompatibilities (ErrIncompatibleMerge) rather than decode errors
// (checkMergeTag).
func (b *bordaHH) decodePeer(checkpoint []byte) (*voting.BordaSketch, error) {
	if err := checkMergeTag(checkpoint, tagBorda); err != nil {
		return nil, err
	}
	v, err := decodeVoter(checkpoint)
	if err != nil {
		return nil, err
	}
	peer := v.e.(*voting.BordaSketch)
	if err := b.e.(*voting.BordaSketch).CanMerge(peer); err != nil {
		return nil, merge.Incompatiblef("%v", err)
	}
	if v.phi != b.phi {
		return nil, merge.Incompatiblef("l1hh: cannot merge Borda solvers with different ϕ (%v vs %v)", b.phi, v.phi)
	}
	return peer, nil
}

// buildVotingProblem constructs the Borda or maximin engine for st:
// Theorem 5/6 sketches when the stream length is known, the Theorem 8
// staggering otherwise (winner/score queries only; not serializable).
func buildVotingProblem(st *settings) (HeavyHitters, error) {
	cfg := st.cfg
	n := st.candidates
	src := rng.New(cfg.Seed)
	v := voterBase{n: n, eps: cfg.Eps, phi: cfg.Phi}
	var err error
	switch {
	case cfg.StreamLength == 0 && st.problem == BordaProblem:
		v.e, err = unknown.NewBorda(src, n, cfg.Eps, cfg.Delta)
	case cfg.StreamLength == 0:
		v.e, err = unknown.NewMaximin(src, n, cfg.Eps, cfg.Delta)
	case st.problem == BordaProblem:
		v.tag = tagBorda
		v.e, err = voting.NewBordaSketch(src, voting.BordaConfig{
			N: n, Eps: cfg.Eps, Delta: cfg.Delta, M: cfg.StreamLength,
		})
	default:
		v.tag = tagMaximin
		v.e, err = voting.NewMaximinSketch(src, voting.MaximinConfig{
			N: n, Eps: cfg.Eps, Delta: cfg.Delta, M: cfg.StreamLength,
		})
	}
	if err != nil {
		return nil, err
	}
	return wrapVoter(v), nil
}

// extremesEngine is the method set the frequency-extreme solvers share:
// ε-Minimum (*minimum.Solver, *unknown.Minimum) and ε-Maximum
// (*core.Maximum, *unknown.Maximum). Their Report shapes differ, so
// extremesHH.result switches on them.
type extremesEngine interface {
	Insert(x uint64)
	Len() uint64
	ModelBits() int64
}

// extremesHH adapts a frequency-extreme solver (ε-Minimum or ε-Maximum,
// known- or unknown-length) to HeavyHitters + Extremes. Single-owner.
type extremesHH struct {
	e extremesEngine
	// tag is the engine's checkpoint tag (tagMinimum or tagMaximum); 0
	// marks the unknown-length engines, which do not serialize.
	tag      byte
	problem  Problem
	eps      float64
	universe uint64
	// m is the configured stream length (0 when unknown): the sampler is
	// tuned for it, so mid-stream the honest error bar is ε·m, not
	// ε·len. See extreme.
	m      uint64
	closed bool
}

// Insert processes one stream item. Items must lie in [0, Universe) —
// the ε-Minimum machinery indexes bit-vectors by item id, so the bound
// is enforced here rather than by a panic deeper down.
func (e *extremesHH) Insert(x Item) error {
	if e.closed {
		return ErrClosed
	}
	if x >= e.universe {
		return fmt.Errorf("l1hh: item %d outside the universe [0, %d)", x, e.universe)
	}
	e.e.Insert(x)
	return nil
}

// InsertBatch processes a batch of items; on a bounds error the prefix
// before the offending item has been applied. An engine with a batch
// path (the known-length ε-Maximum) takes the prefix on it.
func (e *extremesHH) InsertBatch(items []Item) error {
	if e.closed {
		return ErrClosed
	}
	n := 0
	for n < len(items) && items[n] < e.universe {
		n++
	}
	if b, ok := e.e.(interface{ InsertBatch([]uint64) }); ok {
		b.InsertBatch(items[:n])
	} else {
		for _, x := range items[:n] {
			e.e.Insert(x)
		}
	}
	if n < len(items) {
		return e.Insert(items[n]) // the bounds error
	}
	return nil
}

// MinItem implements Extremes.
func (e *extremesHH) MinItem() (ItemEstimate, float64, error) {
	if e.problem != MinFrequencyProblem {
		return ItemEstimate{}, 0, ErrWrongExtreme
	}
	return e.extreme()
}

// MaxItem implements Extremes.
func (e *extremesHH) MaxItem() (ItemEstimate, float64, error) {
	if e.problem != MaxFrequencyProblem {
		return ItemEstimate{}, 0, ErrWrongExtreme
	}
	return e.extreme()
}

func (e *extremesHH) extreme() (ItemEstimate, float64, error) {
	est, ok := e.result()
	if !ok {
		return ItemEstimate{}, 0, ErrEmptyStream
	}
	// A known-length sampler's error is bounded against the configured m
	// it was tuned for; quoting ε·len mid-stream would understate it.
	n := e.e.Len()
	if e.m > n {
		n = e.m
	}
	return est, e.eps * float64(n), nil
}

// result reads the extreme through the engine's own Report shape; ok is
// false until the engine has something to report.
func (e *extremesHH) result() (ItemEstimate, bool) {
	if e.e.Len() == 0 {
		return ItemEstimate{}, false
	}
	switch a := e.e.(type) {
	case interface{ Report() minimum.Result }:
		res := a.Report()
		return ItemEstimate{Item: res.Item, F: res.F}, true
	case interface {
		Report() (item uint64, freq float64, ok bool)
	}:
		item, freq, ok := a.Report()
		return ItemEstimate{Item: item, F: freq}, ok
	default: // unreachable: extremesHH only wraps the four solvers above
		return ItemEstimate{}, false
	}
}

// Report returns the single extreme as a one-element list (empty before
// any insert), so generic report plumbing answers for extremes engines.
func (e *extremesHH) Report() []ItemEstimate {
	if est, ok := e.result(); ok {
		return []ItemEstimate{est}
	}
	return nil
}

// Len returns the number of items inserted so far.
func (e *extremesHH) Len() uint64 { return e.e.Len() }

// Eps returns the additive-error parameter ε.
func (e *extremesHH) Eps() float64 { return e.eps }

// Phi returns 0: extremes problems have no heaviness threshold.
func (e *extremesHH) Phi() float64 { return 0 }

// Stats returns the unified operational snapshot.
func (e *extremesHH) Stats() Stats {
	n := e.e.Len()
	return Stats{Items: n, Len: n, Eps: e.eps, Shards: 1, ModelBits: e.e.ModelBits()}
}

// ModelBits reports the sketch size under the paper's accounting.
func (e *extremesHH) ModelBits() int64 { return e.e.ModelBits() }

// MarshalBinary checkpoints the engine (tag 9 or 10); unknown-length
// engines return an error.
func (e *extremesHH) MarshalBinary() ([]byte, error) {
	if e.tag == 0 {
		return nil, errNotSerializable
	}
	return taggedMarshal(e.tag, e.e.(encoding.BinaryMarshaler))
}

// Close stops ingest; queries and checkpoints keep working. Idempotent.
func (e *extremesHH) Close() error {
	e.closed = true
	return nil
}

// buildExtremesProblem constructs the ε-Minimum or ε-Maximum engine for
// st: Algorithm 3 / Theorem 3 when the stream length is known, the
// Theorem 7/8 staggering otherwise (not serializable).
func buildExtremesProblem(st *settings) (HeavyHitters, error) {
	cfg := st.cfg
	src := rng.New(cfg.Seed)
	x := &extremesHH{problem: st.problem, eps: cfg.Eps, universe: cfg.Universe, m: cfg.StreamLength}
	var err error
	switch {
	case cfg.StreamLength == 0 && st.problem == MinFrequencyProblem:
		x.e, err = unknown.NewMinimum(src, cfg.Eps, cfg.Delta, cfg.Universe)
	case cfg.StreamLength == 0:
		x.e, err = unknown.NewMaximum(src, cfg.Eps, cfg.Delta, cfg.Universe)
	case st.problem == MinFrequencyProblem:
		x.tag = tagMinimum
		x.e, err = minimum.New(src, minimum.Config{
			Eps: cfg.Eps, Delta: cfg.Delta, M: cfg.StreamLength, N: cfg.Universe,
		})
	default:
		x.tag = tagMaximum
		x.e, err = core.NewMaximum(src, core.Config{
			Eps: cfg.Eps, Delta: cfg.Delta, M: cfg.StreamLength, N: cfg.Universe,
		})
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// decodeVoter decodes a tag 7/8 checkpoint into a voting adapter base:
// the frame's ϕ threshold and the sketch, cross-checking ϕ against the
// sketch's own parameters (a tampered frame must not restore an engine
// whose List threshold is out of range).
func decodeVoter(data []byte) (voterBase, error) {
	r := wire.NewReader(data[1:])
	v := voterBase{tag: data[0], phi: r.F64()}
	blob := r.Blob()
	if r.Err() != nil {
		return v, fmt.Errorf("l1hh: corrupt voting encoding: %w", r.Err())
	}
	if !r.Done() {
		return v, errors.New("l1hh: trailing bytes after voting encoding")
	}
	if v.tag == tagBorda {
		sk := new(voting.BordaSketch)
		if err := sk.UnmarshalBinary(blob); err != nil {
			return v, err
		}
		v.e, v.n, v.eps = sk, sk.Params().N, sk.Params().Eps
	} else {
		sk := new(voting.MaximinSketch)
		if err := sk.UnmarshalBinary(blob); err != nil {
			return v, err
		}
		v.e, v.n, v.eps = sk, sk.Params().N, sk.Params().Eps
	}
	if !(v.phi > v.eps && v.phi <= 1) {
		return v, fmt.Errorf("l1hh: corrupt voting encoding: phi = %v out of (eps, 1]", v.phi)
	}
	return v, nil
}

// unmarshalProblem restores a problem-engine checkpoint (tags 7–10)
// behind the HeavyHitters interface with the original capability set.
// Problem engines take no runtime tuning, so the caller has already
// rejected every option.
func unmarshalProblem(data []byte) (HeavyHitters, error) {
	switch data[0] {
	case tagBorda, tagMaximin:
		v, err := decodeVoter(data)
		if err != nil {
			return nil, err
		}
		return wrapVoter(v), nil
	case tagMinimum:
		a := new(minimum.Solver)
		if err := a.UnmarshalBinary(data[1:]); err != nil {
			return nil, err
		}
		cfg := a.Params()
		return &extremesHH{e: a, tag: tagMinimum, problem: MinFrequencyProblem,
			eps: cfg.Eps, universe: cfg.N, m: cfg.M}, nil
	case tagMaximum:
		a := new(core.Maximum)
		if err := a.UnmarshalBinary(data[1:]); err != nil {
			return nil, err
		}
		cfg := a.Params()
		return &extremesHH{e: a, tag: tagMaximum, problem: MaxFrequencyProblem,
			eps: cfg.Eps, universe: cfg.N, m: cfg.M}, nil
	default:
		return nil, errors.New("l1hh: unrecognized solver encoding")
	}
}
