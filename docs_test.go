package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

var (
	mdLink     = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdSpan     = regexp.MustCompile("`[^`\n]+`")
	mdHeading  = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)
	mdCodePath = regexp.MustCompile(`(?:^|[^\w/.-])((?:\./)?cmd/[\w-]+|internal/[\w./*-]+)`)
)

// TestDocsResolve holds the documents to the tree: every relative link in
// README.md, ROADMAP.md and docs/**/*.md names a file that exists and every
// #anchor a heading of its target, and every ./cmd/<name> or internal/<pkg>
// path the documents name in code (spans or fenced blocks) exists. A path
// may carry a :line suffix or a glob, which must match something. CHANGES.md
// is history and is not checked.
func TestDocsResolve(t *testing.T) {
	docs := []string{"README.md", "ROADMAP.md"}
	err := filepath.WalkDir("docs", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
			docs = append(docs, filepath.ToSlash(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]map[string]bool{}
	headings := func(path string) map[string]bool {
		if a, ok := anchors[path]; ok {
			return a
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, _, a := parseMarkdown(string(src))
		anchors[path] = a
		return a
	}
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose, code, _ := parseMarkdown(string(src))
		for _, m := range mdLink.FindAllStringSubmatch(prose, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, anchor, _ := strings.Cut(target, "#")
			path := doc
			if file != "" {
				path = filepath.ToSlash(filepath.Join(filepath.Dir(doc), file))
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: link %q: no file %s", doc, target, path)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(path, ".md") && !headings(path)[anchor] {
				t.Errorf("%s: link %q: %s has no heading #%s", doc, target, path, anchor)
			}
		}
		for _, m := range mdCodePath.FindAllStringSubmatch(code, -1) {
			p := strings.TrimRight(m[1], ".")
			if i := strings.IndexByte(p, ':'); i >= 0 {
				p = p[:i]
			}
			if matches, _ := filepath.Glob(p); len(matches) == 0 {
				t.Errorf("%s: code names %s, which does not exist", doc, m[1])
			}
		}
	}
}

// parseMarkdown splits a document into its prose (code spans blanked) and
// its code (spans and fenced blocks, one per line), and collects the anchors
// of its headings as GitHub derives them: lower case, punctuation dropped,
// spaces turned into hyphens, a repeated slug numbered -1, -2, ...
func parseMarkdown(src string) (prose, code string, anchors map[string]bool) {
	var p, c strings.Builder
	anchors = map[string]bool{}
	seen := map[string]int{}
	fenced := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			c.WriteString(line + "\n")
			continue
		}
		for _, span := range mdSpan.FindAllString(line, -1) {
			c.WriteString(span + "\n")
		}
		p.WriteString(mdSpan.ReplaceAllStringFunc(line, func(s string) string { return strings.Repeat(" ", len(s)) }) + "\n")
		if m := mdHeading.FindStringSubmatch(line); m != nil {
			slug := strings.Map(func(r rune) rune {
				switch {
				case r == ' ':
					return '-'
				case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
					return unicode.ToLower(r)
				}
				return -1
			}, m[1])
			n := seen[slug]
			seen[slug]++
			if n > 0 {
				slug += "-" + strconv.Itoa(n)
			}
			anchors[slug] = true
		}
	}
	return p.String(), c.String(), anchors
}
