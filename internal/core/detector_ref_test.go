package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// referenceDetect is DetectColumn written the direct way: ScorePair on
// every pair of the first maxDistinct distinct non-empty values, with the
// same count-weighted attribution. DetectColumn scores pattern groups
// instead of value pairs and must agree with it exactly.
func referenceDetect(d *Detector, values []string) []Finding {
	type dv struct {
		value        string
		count, first int
	}
	var distinct []dv
	index := map[string]int{}
	for i, v := range values {
		if v == "" {
			continue
		}
		if j, ok := index[v]; ok {
			distinct[j].count++
			continue
		}
		index[v] = len(distinct)
		distinct = append(distinct, dv{value: v, count: 1, first: i})
	}
	if len(distinct) > d.maxDistinct {
		distinct = distinct[:d.maxDistinct]
	}
	n := len(distinct)
	confSum := make([]float64, n)
	weightSum := make([]float64, n)
	bestConf := make([]float64, n)
	bestPartner := make([]int, n)
	for i := range bestPartner {
		bestPartner[i] = -1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ps := d.ScorePair(distinct[i].value, distinct[j].value)
			weightSum[i] += float64(distinct[j].count)
			weightSum[j] += float64(distinct[i].count)
			if !ps.Flagged {
				continue
			}
			confSum[i] += ps.Confidence * float64(distinct[j].count)
			confSum[j] += ps.Confidence * float64(distinct[i].count)
			if ps.Confidence > bestConf[i] {
				bestConf[i], bestPartner[i] = ps.Confidence, j
			}
			if ps.Confidence > bestConf[j] {
				bestConf[j], bestPartner[j] = ps.Confidence, i
			}
		}
	}
	var out []Finding
	for i := 0; i < n; i++ {
		if bestPartner[i] < 0 || weightSum[i] == 0 {
			continue
		}
		out = append(out, Finding{
			Value:      distinct[i].value,
			Index:      distinct[i].first,
			Partner:    distinct[bestPartner[i]].value,
			Confidence: confSum[i] / weightSum[i],
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	return out
}

// checkMatchesReference fails t unless DetectColumn and referenceDetect
// return the same findings, confidences compared with ==.
func checkMatchesReference(t *testing.T, d *Detector, values []string) {
	t.Helper()
	got, want := d.DetectColumn(values), referenceDetect(d, values)
	if len(got) != len(want) {
		t.Fatalf("%v: %d findings, reference %d\ngot  %+v\nwant %+v", d.Aggregation(), len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v: finding %d = %+v, reference %+v", d.Aggregation(), i, got[i], want[i])
		}
	}
}

var allAggregations = []Aggregation{
	AggMaxConfidence, AggAvgNPMI, AggMinNPMI, AggMajorityVote, AggWeightedMajorityVote,
}

// randomValue draws a value in one of a dozen formats, so columns mix a
// few pattern groups with many distinct values per group.
func randomValue(r *rand.Rand) string {
	switch r.Intn(12) {
	case 0, 1, 2:
		return fmt.Sprintf("%d-%02d-%02d", 1990+r.Intn(30), 1+r.Intn(12), 1+r.Intn(28))
	case 3:
		return fmt.Sprintf("%d/%02d/%02d", 1990+r.Intn(30), 1+r.Intn(12), 1+r.Intn(28))
	case 4:
		return fmt.Sprintf("%d", r.Intn(100000))
	case 5:
		return fmt.Sprintf("%d,%03d", 1+r.Intn(99), r.Intn(1000))
	case 6:
		return fmt.Sprintf("%d.%d", r.Intn(100), r.Intn(10))
	case 7:
		return []string{"July-01", "March-02", "April-03", "Alpha", "beta"}[r.Intn(5)]
	case 8:
		return fmt.Sprintf("(%03d) %03d-%04d", r.Intn(1000), r.Intn(1000), r.Intn(10000))
	case 9:
		return []string{"N/A", "-", "?", "n.a."}[r.Intn(4)]
	case 10:
		return ""
	default:
		return fmt.Sprintf("%d kg", 40+r.Intn(80))
	}
}

// referenceColumns returns columns with empty cells, repeated values and,
// in the last few, more distinct values than the detector scores.
func referenceColumns() [][]string {
	r := rand.New(rand.NewSource(13))
	cols := [][]string{
		nil,
		{""},
		{"2011-01-01"},
		{"2011-01-01", "2011-01-01", ""},
		{"2011-01-01", "2011/01/01"},
		{"2011-01-01", "", "2012-03-04", "", "1999-12-31", "2011/01/01", "2011/01/01"},
	}
	for _, n := range []int{3, 5, 8, 12, 20, 30, 40, 60, 90, 140, 220, 400} {
		col := make([]string, n)
		for i := range col {
			if i > 0 && r.Intn(4) == 0 {
				col[i] = col[r.Intn(i)] // repeat an earlier cell
			} else {
				col[i] = randomValue(r)
			}
		}
		cols = append(cols, col)
	}
	return cols
}

// TestDetectColumnMatchesReference: scoring by pattern group returns
// exactly what scoring every distinct value pair returns, for every
// aggregation, on exact and sketch-compressed statistics.
func TestDetectColumnMatchesReference(t *testing.T) {
	tiny := tinyDetector(t)
	sketched := make([]*Calibration, len(tiny.Languages()))
	for i, c := range tiny.Languages() {
		sk, err := c.Stats.SketchCopy(0.05, 4)
		if err != nil {
			t.Fatal(err)
		}
		cp := *c
		cp.Stats = sk
		sketched[i] = &cp
	}
	ensembles := map[string][]*Calibration{
		"fixture": fixtureCalibrations(t),
		"exact":   tiny.Languages(),
		"sketch":  sketched,
	}
	cols := referenceColumns()
	if long := cols[len(cols)-1]; len(distinctNonEmpty(long)) <= 100 {
		t.Fatalf("longest column has only %d distinct values", len(distinctNonEmpty(long)))
	}
	for name, cals := range ensembles {
		for _, agg := range allAggregations {
			d, err := NewDetector(cals, agg)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name+"/"+agg.String(), func(t *testing.T) {
				for _, col := range cols {
					checkMatchesReference(t, d, col)
				}
			})
		}
	}
}

func distinctNonEmpty(values []string) map[string]bool {
	m := map[string]bool{}
	for _, v := range values {
		if v != "" {
			m[v] = true
		}
	}
	return m
}

// FuzzDetectColumnReference is the fuzz form of the reference check: a
// newline-separated column must get the same findings from DetectColumn
// as from scoring every distinct pair, under every aggregation.
func FuzzDetectColumnReference(f *testing.F) {
	cals := fixtureCalibrations(f)
	for _, col := range referenceColumns()[:12] {
		f.Add(strings.Join(col, "\n"))
	}
	f.Add("2011-01-01\n2012-03-04\n\n1999\n2011/01/01\nJuly-01\n2011-01-01")
	f.Fuzz(func(t *testing.T, raw string) {
		values := strings.Split(raw, "\n")
		if len(values) > 300 {
			values = values[:300]
		}
		for _, agg := range allAggregations {
			d, err := NewDetector(cals, agg)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesReference(t, d, values)
		}
	})
}

// TestDetectColumnAllocsBounded: the per-column scratch comes from a pool
// and the findings slice is sized once, so allocations stay a small
// constant whether the column has 10 or 100 distinct values.
func TestDetectColumnAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so scratch is rebuilt at random")
	}
	d, err := NewDetector(fixtureCalibrations(t), AggMaxConfidence)
	if err != nil {
		t.Fatal(err)
	}
	column := func(n int) []string {
		col := make([]string, 0, n+1)
		for i := 0; i < n; i++ {
			col = append(col, fmt.Sprintf("%d-%02d-%02d", 1990+i%30, 1+i%12, 1+i%28))
		}
		return append(col, "2011/01/01")
	}
	short, long := column(9), column(99)
	if len(d.DetectColumn(long)) == 0 {
		t.Fatal("long column produced no findings; the bound would not cover the findings slice")
	}
	allocs := func(col []string) float64 {
		return testing.AllocsPerRun(50, func() { d.DetectColumn(col) })
	}
	a10, a100 := allocs(short), allocs(long)
	t.Logf("allocations per column: %.2f at 10 distinct values, %.2f at 100", a10, a100)
	const bound = 4
	if a10 > bound || a100 > bound {
		t.Errorf("allocations per column = %.2f (10 distinct), %.2f (100 distinct); want at most %d for both", a10, a100, bound)
	}
}
