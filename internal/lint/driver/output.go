package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"crumbcruncher/internal/lint/analysis"
)

// Finding is the exported, serializable form of one diagnostic, as
// emitted by -json and -sarif. File is relative to the working
// directory when possible, so SARIF artifacts travel between checkouts.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	EndLine  int    `json:"end_line,omitempty"`
	EndCol   int    `json:"end_column,omitempty"`
	Message  string `json:"message"`
}

// exportFindings converts internal findings, relativizing paths.
func exportFindings(fs []finding) []Finding {
	cwd, _ := os.Getwd()
	rel := func(p string) string {
		if cwd == "" || p == "" {
			return p
		}
		if r, err := filepath.Rel(cwd, p); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return p
	}
	out := make([]Finding, 0, len(fs))
	for _, f := range fs {
		e := Finding{
			Analyzer: f.analyzer,
			File:     rel(f.pos.Filename),
			Line:     f.pos.Line,
			Column:   f.pos.Column,
			Message:  f.message,
		}
		if f.end.Line > 0 {
			e.EndLine, e.EndCol = f.end.Line, f.end.Column
		}
		out = append(out, e)
	}
	return out
}

// printFindings writes findings in the canonical file:line:col form the
// acceptance tests (and editors) expect.
func printFindings(w io.Writer, fs []Finding) {
	for _, f := range fs {
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
	}
}

// writeJSON emits the findings as a JSON array (stable field order,
// trailing newline) for tooling.
func writeJSON(w io.Writer, fs []Finding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if fs == nil {
		fs = []Finding{}
	}
	return enc.Encode(fs)
}

// --- SARIF ------------------------------------------------------------------

// writeSARIF emits a minimal SARIF 2.1.0 log: one run, one rule per
// analyzer, one result per finding. This is the subset GitHub code
// scanning and most SARIF viewers consume.
func writeSARIF(w io.Writer, analyzers []*analysis.Analyzer, fs []Finding) error {
	type sarifMessage struct {
		Text string `json:"text"`
	}
	type sarifRule struct {
		ID   string       `json:"id"`
		Name string       `json:"name"`
		Help sarifMessage `json:"shortDescription"`
	}
	type sarifArtifact struct {
		URI string `json:"uri"`
	}
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
		EndLine     int `json:"endLine,omitempty"`
		EndColumn   int `json:"endColumn,omitempty"`
	}
	type sarifPhysical struct {
		ArtifactLocation sarifArtifact `json:"artifactLocation"`
		Region           sarifRegion   `json:"region"`
	}
	type sarifLocation struct {
		PhysicalLocation sarifPhysical `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID    string          `json:"ruleId"`
		Level     string          `json:"level"`
		Message   sarifMessage    `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}
	type sarifDriver struct {
		Name           string      `json:"name"`
		InformationURI string      `json:"informationUri"`
		Rules          []sarifRule `json:"rules"`
	}
	type sarifTool struct {
		Driver sarifDriver `json:"driver"`
	}
	type sarifRun struct {
		Tool    sarifTool     `json:"tool"`
		Results []sarifResult `json:"results"`
	}
	type sarifLog struct {
		Schema  string     `json:"$schema"`
		Version string     `json:"version"`
		Runs    []sarifRun `json:"runs"`
	}

	var rules []sarifRule
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		rules = append(rules, sarifRule{ID: a.Name, Name: a.Name, Help: sarifMessage{Text: doc}})
	}
	results := []sarifResult{}
	for _, f := range fs {
		r := sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.File)},
					Region: sarifRegion{
						StartLine:   f.Line,
						StartColumn: f.Column,
						EndLine:     f.EndLine,
						EndColumn:   f.EndCol,
					},
				},
			}},
		}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "crumblint", InformationURI: "https://example.invalid/crumblint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
