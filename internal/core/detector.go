package core

import (
	"errors"
	"slices"
	"sync"

	"repro/internal/pattern"
)

// Aggregation selects how per-language scores combine into one prediction
// (Section 4.8 / Appendix B).
type Aggregation int

// Aggregation strategies compared in Figure 8(b).
const (
	// AggMaxConfidence is the paper's choice: trust the single most
	// confident language, Q = max_k Pk(sk) (Equation 11), and flag a pair
	// if any language fires (union semantics).
	AggMaxConfidence Aggregation = iota
	// AggAvgNPMI ranks by the average NPMI across languages.
	AggAvgNPMI
	// AggMinNPMI ranks by the minimum NPMI across languages.
	AggMinNPMI
	// AggMajorityVote counts languages firing at their thresholds and
	// requires a majority.
	AggMajorityVote
	// AggWeightedMajorityVote weights each vote by the magnitude of the
	// language's NPMI score.
	AggWeightedMajorityVote
)

// String names the aggregation.
func (a Aggregation) String() string {
	switch a {
	case AggMaxConfidence:
		return "Auto-Detect"
	case AggAvgNPMI:
		return "AvgNPMI"
	case AggMinNPMI:
		return "MinNPMI"
	case AggMajorityVote:
		return "MV"
	case AggWeightedMajorityVote:
		return "WMV"
	default:
		return "unknown"
	}
}

// LangScore is one language's verdict on a value pair.
type LangScore struct {
	// LanguageID identifies the generalization language.
	LanguageID int
	// NPMI is sk(u,v).
	NPMI float64
	// Fires is sk ≤ θk.
	Fires bool
	// Precision is the estimated precision Pk(sk).
	Precision float64
}

// PairScore is the aggregated verdict on a value pair.
type PairScore struct {
	// Confidence is the ranking score in [0,1]; higher means more likely
	// incompatible.
	Confidence float64
	// Flagged is the binary prediction at the configured precision target.
	Flagged bool
	// ByLanguage holds the per-language verdicts.
	ByLanguage []LangScore
}

// Finding is one suspected error in a column.
type Finding struct {
	// Value is the suspected erroneous value.
	Value string
	// Index is the row of the value's first occurrence.
	Index int
	// Partner is the compatible-majority value Value conflicts with most
	// confidently.
	Partner string
	// Confidence is the count-weighted aggregated confidence in [0,1].
	Confidence float64
}

// Detector predicts incompatible values using an ensemble of calibrated
// generalization languages.
type Detector struct {
	cals []*Calibration
	agg  Aggregation

	// maxDistinct caps the distinct values scored pairwise per column.
	maxDistinct int
}

// NewDetector builds a detector from calibrated languages.
func NewDetector(cals []*Calibration, agg Aggregation) (*Detector, error) {
	if len(cals) == 0 {
		return nil, errors.New("core: detector needs at least one language")
	}
	return &Detector{cals: cals, agg: agg, maxDistinct: 100}, nil
}

// Languages returns the detector's calibrated languages.
func (d *Detector) Languages() []*Calibration { return d.cals }

// Aggregation returns the configured aggregation strategy.
func (d *Detector) Aggregation() Aggregation { return d.agg }

// SetAggregation switches the aggregation strategy (used by the Figure 8b
// ablation; the calibrated languages are unchanged).
func (d *Detector) SetAggregation(a Aggregation) { d.agg = a }

// Bytes returns the total statistics footprint.
func (d *Detector) Bytes() int {
	b := 0
	for _, c := range d.cals {
		b += c.Bytes()
	}
	return b
}

// ScorePair scores a pair of raw values.
func (d *Detector) ScorePair(u, v string) PairScore {
	k := len(d.cals)
	hotPairs.Add(uintptr(len(u)), 1)
	hotLangPairs.Add(uintptr(len(v)), uint64(k))
	hotPatternPairs.Add(uintptr(len(v)), uint64(k))
	hu := d.appendHashes(nil, pattern.Encode(u))
	hv := d.appendHashes(nil, pattern.Encode(v))
	return d.score(hu, hv, make([]LangScore, k))
}

// appendHashes appends the pattern hash of rs under each language of the
// ensemble, in ensemble order.
func (d *Detector) appendHashes(dst []uint64, rs pattern.Runs) []uint64 {
	for _, c := range d.cals {
		dst = append(dst, c.Stats.Language().HashRuns(rs))
	}
	return dst
}

// score is the detector's one scoring path: it fills by with each
// language's verdict on the pattern pair whose per-language hashes are h1
// and h2, and aggregates them. The verdict depends only on the two
// patterns, never on the raw values behind them.
func (d *Detector) score(h1, h2 []uint64, by []LangScore) PairScore {
	for i, c := range d.cals {
		s := c.Stats.NPMIHashes(h1[i], h2[i])
		by[i] = LangScore{
			LanguageID: c.Stats.Language().ID,
			NPMI:       s,
			Fires:      c.Covers(s),
			Precision:  c.PrecisionAt(s),
		}
	}
	ps := PairScore{ByLanguage: by}
	d.aggregate(&ps)
	return ps
}

// aggregate fills Confidence and Flagged from ByLanguage.
func (d *Detector) aggregate(ps *PairScore) {
	k := len(ps.ByLanguage)
	switch d.agg {
	case AggMaxConfidence:
		for _, ls := range ps.ByLanguage {
			if ls.Fires {
				ps.Flagged = true
				if ls.Precision > ps.Confidence {
					ps.Confidence = ls.Precision
				}
			}
		}
		if !ps.Flagged {
			// Still produce a (low) ranking score for recall-oriented
			// inspection below the precision target.
			best := 0.0
			for _, ls := range ps.ByLanguage {
				if p := ls.Precision * 0.5; p > best {
					best = p
				}
			}
			ps.Confidence = best
		}
	case AggAvgNPMI:
		sum := 0.0
		for _, ls := range ps.ByLanguage {
			sum += ls.NPMI
		}
		avg := sum / float64(k)
		ps.Confidence = (1 - avg) / 2
		ps.Flagged = ps.Confidence > 0.5
	case AggMinNPMI:
		min := 1.0
		for _, ls := range ps.ByLanguage {
			if ls.NPMI < min {
				min = ls.NPMI
			}
		}
		ps.Confidence = (1 - min) / 2
		ps.Flagged = ps.Confidence > 0.5
	case AggMajorityVote:
		votes := 0
		for _, ls := range ps.ByLanguage {
			if ls.Fires {
				votes++
			}
		}
		ps.Confidence = float64(votes) / float64(k)
		ps.Flagged = 2*votes > k
	case AggWeightedMajorityVote:
		weight := 0.0
		for _, ls := range ps.ByLanguage {
			if ls.Fires {
				// Weight each vote by the magnitude of the (negative) NPMI.
				w := -ls.NPMI
				if w < 0 {
					w = 0
				}
				weight += w
			}
		}
		ps.Confidence = weight / float64(k)
		if ps.Confidence > 1 {
			ps.Confidence = 1
		}
		ps.Flagged = ps.Confidence > 0.25
	}
}

// groupScore is the verdict on one ordered pair of pattern groups.
type groupScore struct {
	confidence      float64
	flagged, scored bool
}

// columnScratch is the working memory of one DetectColumn call. It is
// taken from scratchPool and returned after the call, so scoring a column
// allocates nothing but its findings once the pool is warm.
type columnScratch struct {
	index map[string]int32 // distinct value → its position below
	// Per distinct value, in order of first occurrence.
	values []string
	count  []int
	first  []int   // row of the first occurrence
	group  []int32 // pattern group
	// hashes holds the K per-language pattern hashes of each group,
	// group-major; key the hashes of the value being grouped.
	hashes, key []uint64
	runs        pattern.Runs
	table       []groupScore // G×G, indexed [group(i)·G + group(j)]
	by          []LangScore  // per-language verdicts of one group pair
	// Attribution accumulators, per distinct value.
	confSum, weightSum, bestConf []float64
	bestPartner                  []int
}

var scratchPool = sync.Pool{New: func() any {
	return &columnScratch{index: make(map[string]int32)}
}}

// release drops the scratch's references to the caller's strings and
// returns it to the pool.
func (s *columnScratch) release() {
	clear(s.index)
	clear(s.values)
	clear(s.runs[:cap(s.runs)])
	s.values, s.count, s.first, s.group = s.values[:0], s.count[:0], s.first[:0], s.group[:0]
	s.hashes, s.runs = s.hashes[:0], s.runs[:0]
	scratchPool.Put(s)
}

// groupOf encodes v once, hashes it under every language of the ensemble
// and returns the index of the group of values sharing all K hashes,
// opening a new group when none does.
func (s *columnScratch) groupOf(d *Detector, v string) int32 {
	s.runs = pattern.AppendEncode(s.runs[:0], v)
	s.key = d.appendHashes(s.key[:0], s.runs)
	k := len(s.key)
	for g := 0; g*k < len(s.hashes); g++ {
		if slices.Equal(s.hashes[g*k:(g+1)*k], s.key) {
			return int32(g)
		}
	}
	s.hashes = append(s.hashes, s.key...)
	return int32(len(s.hashes)/k - 1)
}

// zeroed returns buf resized to n elements, all zero.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// DetectColumn scores all distinct value pairs of a column and attributes
// conflicts to suspect values: a value's confidence is the count-weighted
// confidence of its flagged conflicts with the rest of the column, so a
// lone error conflicting with everything scores near the per-pair
// confidence while majority values conflicting only with the error score
// near zero. Findings are sorted by descending confidence.
//
// A pair's verdict depends only on the values' patterns, so the column is
// scored by pattern group: each distinct value is encoded and hashed once
// per language, values sharing all K hashes form a group, and each ordered
// pair of groups is scored once into a table that the pairwise
// attribution loop reads.
func (d *Detector) DetectColumn(values []string) []Finding {
	hotValues.Add(uintptr(len(values)), uint64(len(values)))
	s := scratchPool.Get().(*columnScratch)
	defer s.release()
	for i, v := range values {
		if v == "" {
			continue // empty cells are missing data, not errors
		}
		if j, ok := s.index[v]; ok {
			s.count[j]++
			continue
		}
		if len(s.values) >= d.maxDistinct {
			continue // beyond the cap: never scored
		}
		s.index[v] = int32(len(s.values))
		s.values = append(s.values, v)
		s.count = append(s.count, 1)
		s.first = append(s.first, i)
		s.group = append(s.group, s.groupOf(d, v))
	}
	n := len(s.values)
	if n < 2 {
		return nil
	}

	k := len(d.cals)
	g := len(s.hashes) / k
	// One publish per column for the whole pair loop below, so the
	// instrumentation cost is independent of n².
	pairs := uint64(n) * uint64(n-1) / 2
	hotPairs.Add(uintptr(n), pairs)
	hotLangPairs.Add(uintptr(n), pairs*uint64(k))
	s.table = zeroed(s.table, g*g)
	s.by = zeroed(s.by, k)
	confSum := zeroed(s.confSum, n)     // Σ over conflicting partners: count·conf
	weightSum := zeroed(s.weightSum, n) // Σ over all partners: count
	bestConf := zeroed(s.bestConf, n)
	bestPartner := zeroed(s.bestPartner, n)
	s.confSum, s.weightSum, s.bestConf, s.bestPartner = confSum, weightSum, bestConf, bestPartner
	for i := range bestPartner {
		bestPartner[i] = -1
	}
	count := s.count
	scored := 0
	for i := 0; i < n; i++ {
		gi := int(s.group[i])
		row := s.table[gi*g : (gi+1)*g]
		for j := i + 1; j < n; j++ {
			gj := int(s.group[j])
			ps := &row[gj]
			if !ps.scored {
				v := d.score(s.hashes[gi*k:(gi+1)*k], s.hashes[gj*k:(gj+1)*k], s.by)
				ps.confidence, ps.flagged, ps.scored = v.Confidence, v.Flagged, true
				scored++
			}
			weightSum[i] += float64(count[j])
			weightSum[j] += float64(count[i])
			if !ps.flagged {
				continue
			}
			confSum[i] += ps.confidence * float64(count[j])
			confSum[j] += ps.confidence * float64(count[i])
			if ps.confidence > bestConf[i] {
				bestConf[i], bestPartner[i] = ps.confidence, j
			}
			if ps.confidence > bestConf[j] {
				bestConf[j], bestPartner[j] = ps.confidence, i
			}
		}
	}
	hotPatternPairs.Add(uintptr(n), uint64(scored)*uint64(k))

	found := 0
	for i := 0; i < n; i++ {
		if bestPartner[i] >= 0 && weightSum[i] != 0 {
			found++
		}
	}
	if found == 0 {
		return nil
	}
	out := make([]Finding, 0, found)
	for i := 0; i < n; i++ {
		if bestPartner[i] < 0 || weightSum[i] == 0 {
			continue
		}
		out = append(out, Finding{
			Value:      s.values[i],
			Index:      s.first[i],
			Partner:    s.values[bestPartner[i]],
			Confidence: confSum[i] / weightSum[i],
		})
	}
	slices.SortStableFunc(out, func(a, b Finding) int {
		switch {
		case a.Confidence > b.Confidence:
			return -1
		case b.Confidence > a.Confidence:
			return 1
		}
		return 0
	})
	return out
}
