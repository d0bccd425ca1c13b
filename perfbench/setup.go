package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/semantic"
)

const (
	// modelColumns sizes the WEB + Pub-XLS corpus the serving and audit
	// workloads train their model on during set-up.
	modelColumns = 1000
	// columnsPerShard is how many columns each CSV shard holds.
	columnsPerShard = 50
	// modelSetups is how often the serving and audit workloads build their
	// model in set-up; setup_s is the median.
	modelSetups = 3
	// trainWorkers is the pipeline parallelism (the box has two cores).
	trainWorkers = 2
	// trainPairs caps the distant-supervision pairs (each of T+ and T−) of
	// every build; calibration time grows with it, and the default of 50000
	// would make calibration take three quarters of a build.
	trainPairs = 5000
)

// servingLanguages is the candidate set of the set-up model: the 32 most
// general languages. On the WEB + Pub-XLS corpus the selection over these
// equals the selection over all 144 candidates, at a fifth of the build
// time, so set-up stays short enough to repeat.
func servingLanguages() []pattern.Language {
	var out []pattern.Language
	for _, l := range pattern.All() {
		if l.GeneralityRank() >= 8 {
			out = append(out, l)
		}
	}
	return out
}

// trainingCorpus is the fixed training corpus of n columns in the paper's
// mix: three quarters WEB columns, one quarter Pub-XLS columns. It does not
// depend on the workload seed. The trained model is part of the deployment
// under test, not of its traffic, and the model a small corpus yields —
// which languages get selected, and with them the cost of every check and
// the quality — changes with the corpus, even with its column order, by
// more than any bound could allow.
func trainingCorpus(n int) []*corpus.Column {
	web := corpus.Generate(corpus.WebProfile(), n*3/4, 1)
	xls := corpus.Generate(corpus.PubXLSProfile(), n-n*3/4, 2)
	return append(web.Columns, xls.Columns...)
}

// labeledColumns draws test columns from the WIKI and Ent-XLS profiles in
// equal shares, with rows in [minRows, maxRows] and one planted error in an
// errorRate share of the columns.
func labeledColumns(seed int64, n, minRows, maxRows int, errorRate float64) []*corpus.Column {
	var out []*corpus.Column
	for i, p := range []corpus.Profile{corpus.WikiProfile(), corpus.EntXLSProfile()} {
		p.MinRows, p.MaxRows, p.ErrorRate, p.Labeled = minRows, maxRows, errorRate, true
		out = append(out, corpus.Generate(p, n/2+i*(n%2), seed+int64(i)).Columns...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// writeShards writes cols as CSV shards of columnsPerShard columns.
func writeShards(dir string, cols []*corpus.Column) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < len(cols); i += columnsPerShard {
		chunk := cols[i:min(i+columnsPerShard, len(cols))]
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.csv", i/columnsPerShard))
		var buf bytes.Buffer
		if err := corpus.WriteCSV(&buf, chunk); err != nil {
			return err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// timedSource is the timing wrapper around a pipeline.ColumnSource: it
// accumulates the time the pipeline spends inside Next (file open, CSV
// parse, validation) as corpus read busy time.
type timedSource struct {
	src  *pipeline.DirSource
	busy time.Duration
}

func (t *timedSource) Next() (*corpus.Column, error) {
	t0 := time.Now()
	c, err := t.src.Next()
	t.busy += time.Since(t0)
	return c, err
}

func (t *timedSource) Fingerprint() string { return t.src.Fingerprint() }

// build is one pipeline build over a shard directory.
type build struct {
	res   *pipeline.Result
	read  time.Duration
	files int
	bytes int64
}

// buildDir trains a detector over the CSV shards under dir; nil langs
// means all 144 candidates.
func buildDir(dir string, langs []pattern.Language) (*build, error) {
	src, err := pipeline.NewDirSource(dir, true)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	tc := core.DefaultTrainConfig()
	tc.Languages = langs
	tc.DistSup.PositivePairs, tc.DistSup.NegativePairs = trainPairs, trainPairs
	ts := &timedSource{src: src}
	res, err := pipeline.Run(context.Background(), ts, pipeline.Options{Workers: trainWorkers, Train: tc})
	if err != nil {
		return nil, err
	}
	bl := &build{res: res, read: ts.busy, files: src.Files()}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bl.bytes += info.Size()
		}
	}
	return bl, nil
}

// model is a trained detector plus the value-level semantic model and the
// corpus both came from.
type model struct {
	det    *core.Detector
	sem    *semantic.Model
	langs  []pattern.Language
	corpus []*corpus.Column
	build  *build
}

// buildModel generates the training corpus, writes it as shards under
// dir, and trains the detector and the semantic model on it.
func buildModel(dir string, n int, langs []pattern.Language) (*model, error) {
	cols := trainingCorpus(n)
	if err := writeShards(dir, cols); err != nil {
		return nil, err
	}
	bl, err := buildDir(dir, langs)
	if err != nil {
		return nil, err
	}
	sem, err := semantic.Train(&corpus.Corpus{Columns: cols}, semantic.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &model{det: bl.res.Detector, sem: sem, langs: langs, corpus: cols, build: bl}, nil
}

// layerFromBuild records the corpus and pipeline per-layer metrics of a
// build.
func (b *bench) layerFromBuild(bl *build) {
	b.layer["corpus.read_s"] = bl.read.Seconds()
	b.layer["corpus.files"] = float64(bl.files)
	b.layer["corpus.bytes"] = float64(bl.bytes)
	for _, st := range bl.res.Stages {
		b.layer["pipeline."+string(st.Stage)+"_s"] = st.Duration.Seconds()
	}
	b.layer["pipeline.columns"] = float64(bl.res.Columns)
	b.layer["pipeline.values"] = float64(bl.res.Values)
}

// quality scores findings against planted labels: a finding is a true
// positive when its value is a planted error of its column, and a planted
// error counts as found when some finding names its value.
type quality struct{ tp, fp, planted, found int }

func (q *quality) add(col *corpus.Column, findings []audit.Finding) {
	dirty := map[string]bool{}
	for _, d := range col.Dirty {
		dirty[col.Values[d]] = true
	}
	q.planted += len(dirty)
	hit := map[string]bool{}
	for _, f := range findings {
		if f.Confidence < audit.DefaultMinConfidence {
			continue
		}
		if dirty[f.Value] {
			q.tp++
			hit[f.Value] = true
		} else {
			q.fp++
		}
	}
	q.found += len(hit)
}

func (q *quality) merge(o quality) {
	q.tp, q.fp, q.planted, q.found = q.tp+o.tp, q.fp+o.fp, q.planted+o.planted, q.found+o.found
}

func (b *bench) reportQuality(q quality) {
	b.e2e["planted_precision"] = float64(q.tp) / float64(q.tp+q.fp)
	b.e2e["planted_recall"] = float64(q.found) / float64(q.planted)
	logf("quality: %d findings, %d true, %d of %d planted errors found", q.tp+q.fp, q.tp, q.found, q.planted)
}

// inputProps measures the input properties caches depend on: distinct
// values per column, repeats within a column, and how many distinct values
// and pattern pairs an earlier column already carried.
type inputProps struct {
	langs                     []pattern.Language
	distinct                  []float64
	cells, repeated           int
	values, valuesSeen        int
	pairs, pairsSeen, columns int
	seenValues                map[string]bool
	seenPairs                 map[[3]uint64]bool
}

func newInputProps(det *core.Detector) *inputProps {
	p := &inputProps{seenValues: map[string]bool{}, seenPairs: map[[3]uint64]bool{}}
	for _, c := range det.Languages() {
		p.langs = append(p.langs, c.Stats.Language())
	}
	return p
}

// maxScored mirrors the detector's cap on distinct values scored per column.
const maxScored = 100

func (p *inputProps) add(values []string) {
	p.columns++
	var distinct []string
	inColumn := map[string]bool{}
	for _, v := range values {
		if v == "" {
			continue
		}
		p.cells++
		if inColumn[v] {
			p.repeated++
			continue
		}
		inColumn[v] = true
		distinct = append(distinct, v)
		p.values++
		if p.seenValues[v] {
			p.valuesSeen++
		}
	}
	for _, v := range distinct {
		p.seenValues[v] = true
	}
	p.distinct = append(p.distinct, float64(len(distinct)))
	if len(distinct) > maxScored {
		distinct = distinct[:maxScored]
	}
	colPairs := map[[3]uint64]bool{}
	for li, l := range p.langs {
		hs := make([]uint64, len(distinct))
		for i, v := range distinct {
			hs[i] = l.HashRuns(pattern.Encode(v))
		}
		for i := range hs {
			for j := i + 1; j < len(hs); j++ {
				a, c := hs[i], hs[j]
				if a > c {
					a, c = c, a
				}
				colPairs[[3]uint64{uint64(li), a, c}] = true
			}
		}
	}
	for k := range colPairs {
		p.pairs++
		if p.seenPairs[k] {
			p.pairsSeen++
		}
	}
	for k := range colPairs {
		p.seenPairs[k] = true
	}
}

func (p *inputProps) report(what string) {
	logf("input properties over the first %d %s: distinct values per column p50 %.0f p99 %.0f; "+
		"cells repeating an earlier value of their column %.3f; distinct values seen in an earlier column %.3f; "+
		"distinct pattern pairs (per selected language) seen in an earlier column %.3f",
		p.columns, what, quantile(p.distinct, 0.5), quantile(p.distinct, 0.99),
		float64(p.repeated)/float64(max(p.cells, 1)), float64(p.valuesSeen)/float64(max(p.values, 1)),
		float64(p.pairsSeen)/float64(max(p.pairs, 1)))
}
