// Package hotds extracts hot data streams from a Sequitur grammar.
//
// A hot data stream is a data-reference subsequence v whose regularity
// magnitude v.heat = v.length * v.frequency exceeds a heat threshold H
// (paper §2.3). This package implements the paper's fast approximation
// algorithm (Figure 5): instead of considering every subsequence, it
// considers only the expansions of grammar nonterminals, exploiting
// Sequitur's ability to infer the hierarchical structure of the trace. The
// algorithm runs in time linear in the grammar size.
//
// The package also provides a precise (Larus-style, paper reference [21])
// detector over the raw trace for the fast-vs-precise ablation; see
// precise.go.
package hotds

import (
	"encoding/binary"
	"sort"

	"hotprefetch/internal/sequitur"
)

// Config controls hot data stream detection.
type Config struct {
	// MinLen and MaxLen bound the expansion length of hot nonterminals
	// (paper Figure 5: minLen <= A.length <= maxLen).
	MinLen uint64
	MaxLen uint64

	// MinUnique is the minimum number of distinct references a reported
	// stream must contain. The paper configures the analysis "to only
	// detect streams that are sufficiently long to justify prefetching
	// (i.e., containing more than ten unique references)" (§1). Zero
	// disables the filter.
	MinUnique int

	// Heat is the explicit heat threshold H. If zero, it is derived as
	// MinCoverage of the profiled trace length.
	Heat uint64

	// MinCoverage derives H = MinCoverage * traceLen when Heat is zero.
	// The paper uses streams that "account for at least 1% of the
	// collected trace" (§4.1).
	MinCoverage float64

	// MaxStreams caps the number of reported streams, keeping the hottest.
	// The paper's DFSM sizing argument assumes n <= 100 streams when each
	// covers at least 1% (§3.1). Zero means no cap.
	MaxStreams int
}

// DefaultConfig returns the paper's §4.1 settings: streams longer than ten
// unique references covering at least 1% of the trace.
func DefaultConfig() Config {
	return Config{
		MinLen:      10,
		MaxLen:      100,
		MinUnique:   10,
		MinCoverage: 0.01,
		MaxStreams:  100,
	}
}

// threshold resolves the heat threshold for a trace of the given length.
func (c Config) threshold(traceLen uint64) uint64 {
	if c.Heat > 0 {
		return c.Heat
	}
	h := uint64(c.MinCoverage * float64(traceLen))
	if h == 0 {
		h = 1
	}
	return h
}

// StreamInfo is one detected hot data stream at the symbol level.
type StreamInfo struct {
	Word []uint64 // the stream's reference sequence (interned symbols)
	Heat uint64   // regularity magnitude: len(Word) * frequency
}

// Coverage returns the fraction of a trace of the given length that the
// stream accounts for.
func (s StreamInfo) Coverage(traceLen uint64) float64 {
	if traceLen == 0 {
		return 0
	}
	return float64(s.Heat) / float64(traceLen)
}

// RuleStats exposes the per-nonterminal values computed by the analysis, in
// the layout of the paper's Table 1. It is primarily for tests, tools, and
// the worked-example reproduction.
type RuleStats struct {
	Rule     int // dense rule index in the snapshot
	Index    int // reverse post-order number
	Len      uint64
	Uses     uint64
	ColdUses uint64 // value at the time the rule was considered
	Heat     uint64
	Hot      bool
}

// Analyze extracts hot data streams from a grammar snapshot using the fast
// approximation algorithm of paper Figure 5.
func Analyze(snap *sequitur.Snapshot, cfg Config) []StreamInfo {
	streams, _ := analyze(snap, cfg, false)
	return streams
}

// AnalyzeDetailed additionally returns the per-rule analysis values
// (paper Table 1), ordered by reverse post-order index.
func AnalyzeDetailed(snap *sequitur.Snapshot, cfg Config) ([]StreamInfo, []RuleStats) {
	return analyze(snap, cfg, true)
}

func analyze(snap *sequitur.Snapshot, cfg Config, detailed bool) ([]StreamInfo, []RuleStats) {
	n := len(snap.Rules)
	if n == 0 {
		return nil, nil
	}
	h := cfg.threshold(snap.InputLen)

	// Phase 1: reverse post-order numbering of nonterminals, guaranteeing
	// that whenever B is a child of A, A.index < B.index, so the later
	// passes visit every rule before any of its descendants.
	index := make([]int, n)   // rule -> reverse post-order number
	byIndex := make([]int, n) // reverse post-order number -> rule
	visited := make([]bool, n)
	next := n
	var number func(a int)
	number = func(a int) {
		if visited[a] {
			return
		}
		visited[a] = true
		for _, sym := range snap.Rules[a].Syms {
			if !sym.IsTerminal() {
				number(sym.Rule)
			}
		}
		next--
		index[a] = next
		byIndex[next] = a
	}
	number(0)

	// Phase 2: uses propagation. Every rule's uses is the number of times
	// it occurs in the (unique) parse tree of the whole grammar.
	uses := make([]uint64, n)
	coldUses := make([]uint64, n)
	uses[0], coldUses[0] = 1, 1
	for i := 0; i < n; i++ {
		a := byIndex[i]
		for _, sym := range snap.Rules[a].Syms {
			if !sym.IsTerminal() {
				b := sym.Rule
				uses[b] += uses[a]
				coldUses[b] = uses[b]
			}
		}
	}

	// Phase 3: find hot nonterminals. A rule is hot only if it accounts for
	// enough of the trace on its own — occurrences inside other hot rules'
	// parse trees do not count (that is what coldUses tracks).
	var streams []StreamInfo
	var stats []RuleStats
	if detailed {
		stats = make([]RuleStats, 0, n)
	}
	seen := map[uint64]struct{}{} // countUnique's set, cleared per candidate
	for i := 0; i < n; i++ {
		a := byIndex[i]
		r := &snap.Rules[a]
		heat := r.Len * coldUses[a]
		hot := a != 0 && // the start rule is never reported
			cfg.MinLen <= r.Len && r.Len <= cfg.MaxLen && h <= heat
		// A candidate's expansion is walked once: counted here, and kept
		// as the stream's word if it stays hot.
		var word []uint64
		if hot {
			word = snap.Expand(a)
			if cfg.MinUnique > 0 {
				hot = countUnique(word, seen) >= cfg.MinUnique
			}
		}
		if detailed {
			stats = append(stats, RuleStats{
				Rule: a, Index: i, Len: r.Len,
				Uses: uses[a], ColdUses: coldUses[a], Heat: heat, Hot: hot,
			})
		}
		if hot {
			streams = append(streams, StreamInfo{Word: word, Heat: heat})
		}
		subtract := uses[a] - coldUses[a]
		if hot {
			subtract = uses[a]
		}
		if subtract > 0 {
			for _, sym := range r.Syms {
				if !sym.IsTerminal() {
					b := sym.Rule
					if coldUses[b] < subtract {
						coldUses[b] = 0 // clamp: descendants fully subsumed
					} else {
						coldUses[b] -= subtract
					}
				}
			}
		}
	}

	streams = mergeIdenticalWords(streams)
	sortStreams(streams)
	if cfg.MaxStreams > 0 && len(streams) > cfg.MaxStreams {
		streams = streams[:cfg.MaxStreams]
	}
	return streams, stats
}

// mergeIdenticalWords combines streams whose words are identical, summing
// their heat. Distinct grammar rules can expand to the same word (burst
// boundary effects split a stream's occurrences across rules); their parse
// tree occurrences are disjoint, so the heats add.
func mergeIdenticalWords(streams []StreamInfo) []StreamInfo {
	if len(streams) < 2 {
		return streams
	}
	index := make(map[string]int, len(streams))
	out := streams[:0]
	var key []byte
	for _, s := range streams {
		// Fixed-width binary key: no separator discipline to get wrong, no
		// formatting allocations.
		key = key[:0]
		for _, v := range s.Word {
			key = binary.LittleEndian.AppendUint64(key, v)
		}
		if i, ok := index[string(key)]; ok {
			out[i].Heat += s.Heat
			continue
		}
		index[string(key)] = len(out)
		out = append(out, s)
	}
	return out
}

// countUnique counts the distinct terminals in word, using seen (emptied
// first) as scratch.
func countUnique(word []uint64, seen map[uint64]struct{}) int {
	clear(seen)
	for _, v := range word {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// sortStreams orders streams by descending heat, breaking ties by length
// (longer first) and then lexicographically, so results are deterministic.
func sortStreams(streams []StreamInfo) {
	sort.Slice(streams, func(i, j int) bool {
		a, b := streams[i], streams[j]
		if a.Heat != b.Heat {
			return a.Heat > b.Heat
		}
		if len(a.Word) != len(b.Word) {
			return len(a.Word) > len(b.Word)
		}
		for k := range a.Word {
			if a.Word[k] != b.Word[k] {
				return a.Word[k] < b.Word[k]
			}
		}
		return false
	})
}

// TotalHeat sums the heat of all streams — an upper bound on the number of
// trace references the streams account for.
func TotalHeat(streams []StreamInfo) uint64 {
	var t uint64
	for _, s := range streams {
		t += s.Heat
	}
	return t
}

// Summary aggregates stream-set statistics for reporting tools.
type Summary struct {
	Streams   int
	TotalHeat uint64
	Coverage  float64 // fraction of the trace the streams account for
	MinLen    int
	MaxLen    int
	AvgLen    float64
	AvgHeat   float64
}

// Summarize computes aggregate statistics over a detected stream set for a
// trace of the given length.
func Summarize(streams []StreamInfo, traceLen uint64) Summary {
	s := Summary{Streams: len(streams)}
	if len(streams) == 0 {
		return s
	}
	s.MinLen = len(streams[0].Word)
	totalLen := 0
	for _, st := range streams {
		s.TotalHeat += st.Heat
		l := len(st.Word)
		totalLen += l
		if l < s.MinLen {
			s.MinLen = l
		}
		if l > s.MaxLen {
			s.MaxLen = l
		}
	}
	s.AvgLen = float64(totalLen) / float64(len(streams))
	s.AvgHeat = float64(s.TotalHeat) / float64(len(streams))
	if traceLen > 0 {
		s.Coverage = float64(s.TotalHeat) / float64(traceLen)
	}
	return s
}
