package core

import "repro/internal/observe"

// Detection hot-path counters. They are package-level striped atomics so
// the inner scoring loops pay at most a handful of uncontended atomic
// adds per column, not per pair: DetectColumn accumulates locally and
// publishes once per column, ScorePair publishes once per call. The
// service layer exposes them to /metrics via observe.CounterFunc.
var (
	hotValues    observe.HotCounter // cells submitted to DetectColumn
	hotPairs     observe.HotCounter // distinct value pairs scored
	hotLangPairs observe.HotCounter // pair evaluations × ensemble size
	// pattern-group pairs actually scored × ensemble size
	hotPatternPairs observe.HotCounter
)

// HotPathStats is a snapshot of the detection hot-path counters since
// process start. Monotonic, not linearizable across fields.
type HotPathStats struct {
	// Values counts column cells submitted to DetectColumn.
	Values uint64
	// Pairs counts distinct value pairs scored (column pairs and
	// ScorePair calls).
	Pairs uint64
	// LanguagePairs counts Pairs × ensemble size: the per-language
	// evaluations that scoring every value pair separately would make.
	LanguagePairs uint64
	// PatternPairs counts per-language scorings of pattern-group pairs:
	// DetectColumn scores each ordered pair of groups of values that
	// share their patterns in every language once, so this is the NPMI
	// work actually done, and LanguagePairs/PatternPairs the saving of
	// scoring by pattern group. ScorePair scores one pair of groups.
	PatternPairs uint64
}

// HotPath returns the current detection hot-path counters.
func HotPath() HotPathStats {
	return HotPathStats{
		Values:        hotValues.Load(),
		Pairs:         hotPairs.Load(),
		LanguagePairs: hotLangPairs.Load(),
		PatternPairs:  hotPatternPairs.Load(),
	}
}
