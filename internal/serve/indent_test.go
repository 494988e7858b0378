package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// checkIndent requires appendIndented to match json.Indent on the
// compact form of doc, and to append after existing bytes of dst.
func checkIndent(t testing.TB, doc []byte) {
	t.Helper()
	var compact, want bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatalf("compact %q: %v", doc, err)
	}
	want.WriteString("prefix")
	if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
		t.Fatalf("indent %q: %v", compact.Bytes(), err)
	}
	got := appendIndented([]byte("prefix"), compact.Bytes())
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendIndented(%q):\n got: %q\nwant: %q", compact.Bytes(), got, want.Bytes())
	}
}

// TestAppendIndentedGoldens runs the differential check over every JSON
// golden of the wire and endpoint tests.
func TestAppendIndentedGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "api", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	local, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, local...)
	if len(files) < 3 {
		t.Fatalf("found only %d goldens: %v", len(files), files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(f), func(t *testing.T) { checkIndent(t, data) })
	}
}

// TestAppendIndentedEdgeCases covers the strings and containers the
// one-pass indenter must copy or lay out exactly as json.Indent does.
func TestAppendIndentedEdgeCases(t *testing.T) {
	for _, doc := range []string{
		`{}`, `[]`, `""`, `0`, `-1.5e+10`, `true`, `null`,
		`{"a":{}}`, `[[]]`, `[{},[],{"b":[]}]`, `{"a":[[{}]],"b":{"c":{}}}`,
		`[1,2,[3,[4,[]]],{"x":null}]`,
		`"a \"quoted\" word"`, `"back\\slash\\"`, `"\\\\\\\""`, `"\\"`, `"\""`,
		`{"a\"b":"c\\"}`, `{"\\":"\\\""}`, `["\\",",",":","{","}","[","]"]`,
		`"<tag> & </tag>"`, `"<>&"`,
		`"\u0000\u0001\u001f\t\n\r\b\f"`,
		"\"\u2028 and \u2029\"", `"\u2028"`, "\" \"",
		`"Grüße, 世界, 🙂"`, `{"ключ":"значение"}`,
		`{"s":"{[,:]}","n":[1,{"t":"]"}]}`,
	} {
		if !json.Valid([]byte(doc)) {
			t.Fatalf("test input %q is not valid JSON", doc)
		}
		checkIndent(t, []byte(doc))
	}
	// Marshalled strings with every byte value, as the daemon emits them.
	var all []byte
	for b := 0; b < 256; b++ {
		all = append(all, byte(b))
	}
	for _, v := range []any{
		string(all),
		map[string]any{"k": string(all), "e": []any{}, "o": map[string]any{}},
		[]string{"a\"b", `c\d`, "<>&", "\u2028\u2029", "\x00\x7f", "\xff\xfe"},
	} {
		doc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		checkIndent(t, doc)
	}
}

// FuzzIndent compares appendIndented with json.Indent on the compact
// form of any valid JSON input.
func FuzzIndent(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `{"a":[1,{"b":"c\"d\\"}],"e":{}}`, "\"\u2028<>&\"",
		`[{"routine":"main","entries":[{"call_used":"{a0, a1}"}]}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		checkIndent(t, data)
	})
}

// BenchmarkAppendIndented indents the endpoint golden, the mix of short
// strings and nesting a reply carries.
func BenchmarkAppendIndented(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "endpoints.json"))
	if err != nil {
		b.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil {
		b.Fatal(err)
	}
	src := compact.Bytes()
	b.Run("appendIndented", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst = appendIndented(dst[:0], src)
		}
	})
	b.Run("json.Indent", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		var dst bytes.Buffer
		for i := 0; i < b.N; i++ {
			dst.Reset()
			if err := json.Indent(&dst, src, "", "  "); err != nil {
				b.Fatal(err)
			}
		}
	})
}
