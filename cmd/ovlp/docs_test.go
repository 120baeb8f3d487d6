package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// skillDoc is the build-and-run recipe file, beside the user docs.
var skillDoc = filepath.Join(".claude", "skills", "verify", "SKILL.md")

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
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", skillDoc} {
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

// goDecls parses every Go file under root, tests included, and returns
// the repository-relative paths of the files, every declared name (a
// func, method, type, named field, const or var), and for each package
// the names it declares, its methods and fields written "Type.Member".
func goDecls(t *testing.T, root string) (files, names map[string]bool, pkgs map[string]map[string]bool) {
	t.Helper()
	files, names, pkgs = map[string]bool{}, map[string]bool{}, map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = true
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkgs[pkg] == nil {
			pkgs[pkg] = map[string]bool{}
		}
		add := func(owner string, ids ...*ast.Ident) {
			for _, id := range ids {
				names[id.Name] = true
				if owner != "" {
					pkgs[pkg][owner+"."+id.Name] = true
				} else {
					pkgs[pkg][id.Name] = true
				}
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				owner := ""
				if decl.Recv != nil {
					typ := decl.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if ix, ok := typ.(*ast.IndexExpr); ok { // a generic receiver
						typ = ix.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						owner = id.Name
					}
				}
				add(owner, decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						add("", spec.Names...)
					case *ast.TypeSpec:
						add("", spec.Name)
						var members []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields.List
						case *ast.InterfaceType:
							members = typ.Methods.List
						}
						for _, m := range members {
							add(spec.Name.Name, m.Names...)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, names, pkgs
}

// TestDocNamesExist holds the names the documentation puts in backticks
// to the code. A name may carry an argument list, as in `Run(cfg)`. A
// `*.go` name is a file in the repository; an exported name without an
// underscore is declared in its Go code; a `pkg.Name` or
// `pkg.Type.Member` whose pkg is a repository package resolves in it.
func TestDocNamesExist(t *testing.T) {
	root := filepath.Join("..", "..")
	files, names, pkgs := goDecls(t, root)
	span := regexp.MustCompile("`([^`\n]+)`")
	goFile := regexp.MustCompile(`^[\w./-]+\.go$`)
	ident := regexp.MustCompile(`^([A-Za-z]\w*(?:\.[A-Za-z]\w*)*)(?:\(.*\))?$`)
	exported := regexp.MustCompile(`^[A-Z][A-Za-z0-9]*$`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", skillDoc} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		inBlock := false
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(line, "```") {
				inBlock = !inBlock
			}
			if inBlock {
				continue
			}
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				name, problem := m[1], ""
				if goFile.MatchString(name) {
					problem = "no such file"
					for f := range files {
						if f == name || strings.HasSuffix(f, "/"+name) {
							problem = ""
							break
						}
					}
				} else if id := ident.FindStringSubmatch(name); id != nil {
					parts := strings.Split(id[1], ".")
					switch {
					case len(parts) == 1 && exported.MatchString(parts[0]):
						if !names[parts[0]] {
							problem = "declared nowhere"
						}
					case len(parts) > 1 && len(parts) <= 3 && exported.MatchString(parts[1]) && pkgs[parts[0]] != nil && parts[0] != "main":
						if !pkgs[parts[0]][strings.Join(parts[1:], ".")] {
							problem = "not in package " + parts[0]
						}
					default:
						continue
					}
				} else {
					continue
				}
				checked++
				if problem != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, i+1, name, problem)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no names in the documentation")
	}
}
