package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docRecipes returns every `ovlp …` or `./ovlp …` command in a fenced
// code block of the Markdown file, as its words after the program name,
// with backslash continuations joined and shell comments dropped. A line
// holding several commands (`a; b`, `a | b`, `a && b`) yields each.
func docRecipes(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	comment := regexp.MustCompile(`(^|\s)#.*$`)
	separator := regexp.MustCompile(`;|&&|\|\|?`)
	var cmds []string
	inBlock := false
	lines := strings.Split(string(src), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(line, "```") {
			inBlock = !inBlock
			continue
		}
		if !inBlock {
			continue
		}
		for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + lines[i]
		}
		line = comment.ReplaceAllString(line, "")
		for _, seg := range separator.Split(line, -1) {
			words := strings.Fields(seg)
			if len(words) > 1 && (words[0] == "ovlp" || words[0] == "./ovlp") {
				cmds = append(cmds, strings.Join(words[1:], " "))
			}
		}
	}
	return cmds
}

// TestDocRecipesParse holds the commands the documentation shows to the
// program: each names a subcommand that exists, and every flag it passes
// is one that subcommand's -h lists.
func TestDocRecipesParse(t *testing.T) {
	known := map[string]bool{}
	for _, c := range subcommands {
		known[c.name] = true
	}
	flagLine := regexp.MustCompile(`(?m)^\s+-([\w-]+)`)
	flags := map[string]map[string]bool{} // subcommand -> the flags its -h lists
	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		for _, cmd := range docRecipes(t, filepath.Join("..", "..", doc)) {
			words := strings.Fields(cmd)
			sub := words[0]
			if sub == "-h" || sub == "-version" {
				continue
			}
			if !known[sub] {
				t.Errorf("%s: `ovlp %s`: no subcommand %q", doc, cmd, sub)
				continue
			}
			if flags[sub] == nil {
				var out bytes.Buffer
				if code := run([]string{sub, "-h"}, &out, &out); code != 0 {
					t.Fatalf("ovlp %s -h: exit %d", sub, code)
				}
				flags[sub] = map[string]bool{}
				for _, m := range flagLine.FindAllStringSubmatch(out.String(), -1) {
					flags[sub][m[1]] = true
				}
			}
			for _, w := range words[1:] {
				name, _, _ := strings.Cut(strings.TrimLeft(w, "-"), "=")
				if !strings.HasPrefix(w, "-") || name == "" || name == "h" {
					continue
				}
				if _, err := strconv.ParseFloat(w, 64); err == nil {
					continue // a negative number is a value, not a flag
				}
				if !flags[sub][name] {
					t.Errorf("%s: `ovlp %s`: %s -h lists no -%s", doc, cmd, sub, name)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no ovlp commands in the documentation")
	}
}
