package xmldoc

// ScanTokens scans src, a complete document, handing back every token, as
// a Framer did before it skimmed its children, and returns the number of
// tokens.
func ScanTokens(src []byte) (int, error) {
	var s scanner
	s.init()
	for n := 0; ; n++ {
		switch tok := s.next(src, true); tok.kind {
		case tokEOF:
			return n, nil
		case tokError:
			return n, s.err
		}
	}
}
