package serve

import "bytes"

// appendIndented appends src, a compact JSON encoding, to dst indented
// exactly as json.Indent(dst, src, "", "  ") would: one element per
// line, two spaces per level, a space after each colon, and empty
// objects and arrays kept as {} and []. It relies on src being compact
// — no whitespace outside strings, which json.Marshal and
// json.Encoder guarantee — so it needs no scanner: only structural
// bytes are rewritten, and each string is copied whole by searching for
// its closing quote and any backslash escapes before it, where
// json.Indent steps a state machine over every byte.
func appendIndented(dst, src []byte) []byte {
	depth := 0
	// needIndent delays the line break after '{' or '[' until the next
	// byte shows the container is not empty.
	needIndent := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if needIndent && c != '}' && c != ']' {
			needIndent = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			j := stringEnd(src, i+1)
			dst = append(dst, src[i:j]...)
			i = j - 1
		case '{', '[':
			needIndent = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if needIndent {
				needIndent = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// stringEnd returns the index just past the closing quote of the JSON
// string whose body starts at src[j], or len(src) if it is unterminated.
// Each byte is searched at most twice — once for a quote, once for a
// backslash — so a string full of escapes stays linear.
func stringEnd(src []byte, j int) int {
	for {
		q := bytes.IndexByte(src[j:], '"')
		if q < 0 {
			return len(src)
		}
		q += j
		// Skip the escapes before the quote; one may escape the quote
		// itself, and then the search resumes past it.
		for j < q {
			b := bytes.IndexByte(src[j:q], '\\')
			if b < 0 {
				break
			}
			j += b + 2
		}
		if j <= q {
			return q + 1
		}
		if j > len(src) {
			return len(src)
		}
	}
}

// appendNewline starts a new line indented depth levels.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
