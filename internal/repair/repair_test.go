package repair

import "testing"

func TestReformatDate(t *testing.T) {
	col := []string{"2011-01-02", "2012-05-14", "2013-11-30", "2011/06/20"}
	s, ok := Suggest(col, "2011/06/20")
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Proposed != "2011-06-20" || s.Rule != "reformat-date" {
		t.Errorf("suggestion = %+v", s)
	}
	if s.Confidence != 1 {
		t.Errorf("confidence = %v", s.Confidence)
	}
}

func TestReformatTextualDate(t *testing.T) {
	col := []string{"January 2, 2011", "May 14, 2012", "12/07/2014", "August 23, 2013"}
	s, ok := Suggest(col, "12/07/2014")
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Proposed != "December 7, 2014" {
		t.Errorf("proposed %q", s.Proposed)
	}
}

func TestStripNoise(t *testing.T) {
	cases := []struct {
		col      []string
		flagged  string
		proposed string
	}{
		{[]string{"1963", "2008", "1976", "2013."}, "2013.", "2013"},
		{[]string{"1963", "2008", "1976", " 1999"}, " 1999", "1999"},
		{[]string{"2011.01.02", "2011.02.14", "2011..03.08"}, "2011..03.08", "2011.03.08"},
		{[]string{"Quarterly Report", "Annual  Summary", "Budget Overview"}, "Annual  Summary", "Annual Summary"},
	}
	for _, c := range cases {
		s, ok := Suggest(c.col, c.flagged)
		if !ok {
			t.Errorf("no suggestion for %q", c.flagged)
			continue
		}
		if s.Proposed != c.proposed || s.Rule != "strip-noise" {
			t.Errorf("Suggest(%q) = %+v, want %q", c.flagged, s, c.proposed)
		}
	}
}

func TestNormalizeNumber(t *testing.T) {
	// Plain-integer column: drop the comma.
	col := []string{"1200", "450", "98000", "1,000"}
	s, ok := Suggest(col, "1,000")
	if !ok || s.Proposed != "1000" || s.Rule != "normalize-number" {
		t.Errorf("drop-comma: %+v ok=%v", s, ok)
	}
	// Comma column: insert separators.
	col2 := []string{"1,200", "450,000", "98,000", "1234567"}
	s2, ok := Suggest(col2, "1234567")
	if !ok || s2.Proposed != "1,234,567" {
		t.Errorf("add-comma: %+v ok=%v", s2, ok)
	}
}

func TestReformatPhone(t *testing.T) {
	col := []string{"(425) 555-0143", "(206) 555-0177", "(360) 555-0102", "509.555.0156"}
	s, ok := Suggest(col, "509.555.0156")
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Proposed != "(509) 555-0156" || s.Rule != "reformat-phone" {
		t.Errorf("suggestion = %+v", s)
	}
	// And the reverse direction.
	col2 := []string{"425-555-0143", "206-555-0177", "(360) 555-0102", "509-555-0156"}
	s2, ok := Suggest(col2, "(360) 555-0102")
	if !ok || s2.Proposed != "360-555-0102" {
		t.Errorf("reverse: %+v ok=%v", s2, ok)
	}
}

func TestConvertUnit(t *testing.T) {
	col := []string{"72 kg", "81 kg", "64 kg", "154 lbs"}
	s, ok := Suggest(col, "154 lbs")
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Rule != "convert-unit" || s.Proposed != "70 kg" {
		t.Errorf("suggestion = %+v", s)
	}
	// Fahrenheit into a Celsius column, preserving decimals.
	col2 := []string{"21.5 C", "19.0 C", "23.4 C", "74.3 F"}
	s2, ok := Suggest(col2, "74.3 F")
	if !ok || s2.Proposed != "23.5 C" {
		t.Errorf("temp: %+v ok=%v", s2, ok)
	}
}

func TestNoSuggestionForPlaceholders(t *testing.T) {
	for _, flagged := range []string{"-", "N/A", "TBD", "?"} {
		col := []string{"3-2", "1-0", "4-4", flagged}
		if s, ok := Suggest(col, flagged); ok && flagged != "-" {
			t.Errorf("placeholder %q got suggestion %+v", flagged, s)
		}
	}
}

func TestNoSuggestionDegenerate(t *testing.T) {
	if _, ok := Suggest(nil, "x"); ok {
		t.Error("empty column")
	}
	if _, ok := Suggest([]string{"x", "x"}, "x"); ok {
		t.Error("flagged value is the whole column")
	}
	if _, ok := Suggest([]string{"a", "b"}, ""); ok {
		t.Error("empty flagged value")
	}
}

func TestHelpers(t *testing.T) {
	if got := commaSeparate("1234567"); got != "1,234,567" {
		t.Errorf("commaSeparate = %q", got)
	}
	if got := commaSeparate("-42000"); got != "-42,000" {
		t.Errorf("negative = %q", got)
	}
	if got := commaSeparate("12"); got != "12" {
		t.Errorf("short = %q", got)
	}
	if got := collapseDoubledSymbols("a--b  c"); got != "a-b c" {
		t.Errorf("collapse = %q", got)
	}
	if got := collapseDoubledSymbols("aabb"); got != "aabb" {
		t.Errorf("letters must not collapse: %q", got)
	}
	if got := renderLike(70.4536, "81"); got != "70" {
		t.Errorf("renderLike int = %q", got)
	}
	if got := renderLike(23.5111, "19.0"); got != "23.5" {
		t.Errorf("renderLike dec = %q", got)
	}
}

// TestSuggestTieBreakDeterministic: with two formats equally common, the
// dominant one is the lexicographically smallest crude pattern, on every
// call, so identical columns always get identical suggestions.
func TestSuggestTieBreakDeterministic(t *testing.T) {
	col := []string{"2011-01-02", "2012-05-14", "2011/06/20", "2012/07/21", "2013.08.09"}
	seen := map[Suggestion]int{}
	for i := 0; i < 200; i++ {
		s, _ := Suggest(col, "2013.08.09")
		seen[s]++
	}
	if len(seen) != 1 {
		t.Fatalf("200 calls gave %d different suggestions: %v", len(seen), seen)
	}
	want := Suggestion{Original: "2013.08.09", Proposed: "2013-08-09", Rule: "reformat-date", Confidence: 0.5}
	if _, ok := seen[want]; !ok {
		t.Errorf("suggestion = %v, want %+v (\\D-\\D-\\D sorts before \\D/\\D/\\D)", seen, want)
	}
}

// profileWithout is the direct profile of the column's non-empty values
// other than flagged, for checking Profile's count subtraction.
func profileWithout(column []string, flagged string) (columnProfile, bool) {
	counts := map[string]int{}
	samples := map[string]string{}
	total := 0
	for _, v := range column {
		if v == "" || v == flagged {
			continue
		}
		p := crudePattern(v)
		counts[p]++
		total++
		if _, ok := samples[p]; !ok {
			samples[p] = v
		}
	}
	if total == 0 {
		return columnProfile{}, false
	}
	best, bestN := "", 0
	for p, n := range counts {
		if n > bestN || (n == bestN && p < best) {
			best, bestN = p, n
		}
	}
	return columnProfile{dominantPattern: best, share: float64(bestN) / float64(total), sample: samples[best]}, true
}

// TestProfileWithoutMatchesDirect: subtracting a flagged value's own
// occurrences from the whole-column profile gives the profile computed
// without it, for every value of columns with repeats, empty cells and
// tied formats.
func TestProfileWithoutMatchesDirect(t *testing.T) {
	cols := [][]string{
		{"2011-01-02", "2012-05-14", "2011/06/20", "2012/07/21", "2013.08.09"},
		{"2011-01-02", "2011-01-02", "2011/06/20", "", "2011/06/20", "2012/07/21", "2011-01-02"},
		{"72 kg", "81 kg", "154 lbs", "154 lbs", "64 kg", "", ""},
		{"1200", "450", "98000", "1,000", "1,000", "2,500", "N/A"},
		{"a", "a", "a"},
		{"", ""},
		{"x"},
	}
	for _, col := range cols {
		p := NewProfile(col)
		for _, flagged := range append([]string{"", "absent"}, col...) {
			got, gotOK := p.without(flagged)
			want, wantOK := profileWithout(col, flagged)
			if got != want || gotOK != wantOK {
				t.Errorf("column %q without %q: profile %+v/%v, direct %+v/%v", col, flagged, got, gotOK, want, wantOK)
			}
		}
	}
}
