package lang

// Lex tokenizes the whole input, ending with a TokEOF token. The
// parser pulls tokens from a Lexer one at a time; Lex exists for the
// tests that inspect a whole token stream.
func Lex(file, src string) ([]Token, error) {
	lx := NewLexer(file, src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
