package vransim_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// TestDocsNameLiveIdentifiers fails on a backticked Go-shaped name in
// DESIGN.md or README.md that no .go, .s or .yml file of the repository
// contains: a name the code no longer has, which a reader would look for
// and not find. A name is Go-shaped when it is an identifier in camelCase
// (`runPacked`, `PlanCacheStats`), one that begins with an upper-case
// letter (`Merge`, `K`), or a dotted form ending in an exported name
// (`program.Emitter`, `Emitter.Loop`), with or without a call's
// parentheses; each part of a dotted form is looked for. Fenced code
// blocks are skipped.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	words := make(map[string]bool)
	ident := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") && name != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".s", ".yml":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, w := range ident.FindAll(b, -1) {
				words[string(w)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`([^`\n]+)`")
	goShaped := regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?$`)
	camel := regexp.MustCompile(`[a-z0-9][A-Z]`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var dangling []string
		for _, m := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(b), ""), -1) {
			name := goShaped.FindStringSubmatch(m[1])
			if name == nil {
				continue
			}
			// A lower-case word is prose, and a dotted form whose last part
			// is lower case a file name (emit.go) or a field (p.gat), not a
			// pkg.Name.
			parts := strings.Split(name[1], ".")
			if last := parts[len(parts)-1]; !camel.MatchString(name[1]) && !unicode.IsUpper(rune(last[0])) {
				continue
			}
			for _, part := range parts {
				if !words[part] && !slices.Contains(dangling, name[1]) {
					dangling = append(dangling, name[1])
				}
			}
		}
		if len(dangling) > 0 {
			t.Errorf("%s names %d identifiers no source file has: %s", doc, len(dangling), strings.Join(dangling, ", "))
		}
	}
}
