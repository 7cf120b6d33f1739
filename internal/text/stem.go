package text

// Stem reduces an English word to its stem using the Porter stemming
// algorithm (M.F. Porter, 1980). The input must already be lower-cased.
// Words of length <= 2 are returned unchanged, per the original paper.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	w := []byte(word)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return string(w)
}

// isConsonant reports whether w[i] acts as a consonant in Porter's sense:
// vowels are a,e,i,o,u, and y is a vowel when preceded by a consonant.
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	default:
		return true
	}
}

// measure computes m, the number of VC (vowel-consonant) sequences in
// w[:end], i.e. the word form [C](VC)^m[V].
func measure(w []byte, end int) int {
	m := 0
	i := 0
	// Skip initial consonant run.
	for i < end && isConsonant(w, i) {
		i++
	}
	for {
		// Vowel run.
		for i < end && !isConsonant(w, i) {
			i++
		}
		if i >= end {
			return m
		}
		// Consonant run: one VC sequence complete.
		for i < end && isConsonant(w, i) {
			i++
		}
		m++
	}
}

// hasVowel reports whether w[:end] contains a vowel.
func hasVowel(w []byte, end int) bool {
	for i := 0; i < end; i++ {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether w[:end] ends with a doubled consonant.
func endsDoubleConsonant(w []byte, end int) bool {
	if end < 2 {
		return false
	}
	return w[end-1] == w[end-2] && isConsonant(w, end-1)
}

// endsCVC reports whether w[:end] ends consonant-vowel-consonant where the
// final consonant is not w, x or y (Porter's *o condition).
func endsCVC(w []byte, end int) bool {
	if end < 3 {
		return false
	}
	if !isConsonant(w, end-3) || isConsonant(w, end-2) || !isConsonant(w, end-1) {
		return false
	}
	c := w[end-1]
	return c != 'w' && c != 'x' && c != 'y'
}

// hasSuffix reports whether w ends in suf.
func hasSuffix(w []byte, suf string) bool {
	return len(w) >= len(suf) && string(w[len(w)-len(suf):]) == suf
}

// replaceSuffix replaces the trailing suf with repl if measure of the stem
// is > m. It reports whether the suffix matched at all (regardless of m).
func replaceSuffix(w *[]byte, suf, repl string, m int) bool {
	if !hasSuffix(*w, suf) {
		return false
	}
	stem := len(*w) - len(suf)
	if measure(*w, stem) > m {
		*w = append((*w)[:stem], repl...)
	}
	return true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w, len(w)-3) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	matched := false
	if hasSuffix(w, "ed") && hasVowel(w, len(w)-2) {
		w = w[:len(w)-2]
		matched = true
	} else if hasSuffix(w, "ing") && hasVowel(w, len(w)-3) {
		w = w[:len(w)-3]
		matched = true
	}
	if !matched {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleConsonant(w, len(w)):
		c := w[len(w)-1]
		if c != 'l' && c != 's' && c != 'z' {
			return w[:len(w)-1]
		}
		return w
	case measure(w, len(w)) == 1 && endsCVC(w, len(w)):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w, len(w)-1) {
		w[len(w)-1] = 'i'
	}
	return w
}

// step2 maps double suffixes to single ones when m > 0.
func step2(w []byte) []byte {
	if len(w) < 3 {
		return w
	}
	// Keyed by penultimate letter as in Porter's original program to avoid
	// trying every suffix.
	switch w[len(w)-2] {
	case 'a':
		if replaceSuffix(&w, "ational", "ate", 0) {
			return w
		}
		replaceSuffix(&w, "tional", "tion", 0)
	case 'c':
		if replaceSuffix(&w, "enci", "ence", 0) {
			return w
		}
		replaceSuffix(&w, "anci", "ance", 0)
	case 'e':
		replaceSuffix(&w, "izer", "ize", 0)
	case 'l':
		if replaceSuffix(&w, "abli", "able", 0) {
			return w
		}
		if replaceSuffix(&w, "alli", "al", 0) {
			return w
		}
		if replaceSuffix(&w, "entli", "ent", 0) {
			return w
		}
		if replaceSuffix(&w, "eli", "e", 0) {
			return w
		}
		replaceSuffix(&w, "ousli", "ous", 0)
	case 'o':
		if replaceSuffix(&w, "ization", "ize", 0) {
			return w
		}
		if replaceSuffix(&w, "ation", "ate", 0) {
			return w
		}
		replaceSuffix(&w, "ator", "ate", 0)
	case 's':
		if replaceSuffix(&w, "alism", "al", 0) {
			return w
		}
		if replaceSuffix(&w, "iveness", "ive", 0) {
			return w
		}
		if replaceSuffix(&w, "fulness", "ful", 0) {
			return w
		}
		replaceSuffix(&w, "ousness", "ous", 0)
	case 't':
		if replaceSuffix(&w, "aliti", "al", 0) {
			return w
		}
		if replaceSuffix(&w, "iviti", "ive", 0) {
			return w
		}
		replaceSuffix(&w, "biliti", "ble", 0)
	}
	return w
}

func step3(w []byte) []byte {
	if len(w) < 3 {
		return w
	}
	switch w[len(w)-1] {
	case 'e':
		if replaceSuffix(&w, "icate", "ic", 0) {
			return w
		}
		if replaceSuffix(&w, "ative", "", 0) {
			return w
		}
		replaceSuffix(&w, "alize", "al", 0)
	case 'i':
		replaceSuffix(&w, "iciti", "ic", 0)
	case 'l':
		if replaceSuffix(&w, "ical", "ic", 0) {
			return w
		}
		replaceSuffix(&w, "ful", "", 0)
	case 's':
		replaceSuffix(&w, "ness", "", 0)
	}
	return w
}

// step4 drops residual suffixes when m > 1.
func step4(w []byte) []byte {
	suffixes := []string{
		"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
		"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
	}
	for _, suf := range suffixes {
		if !hasSuffix(w, suf) {
			continue
		}
		stem := len(w) - len(suf)
		if measure(w, stem) <= 1 {
			return w
		}
		if suf == "ion" {
			// "ion" only drops after s or t.
			if stem == 0 || (w[stem-1] != 's' && w[stem-1] != 't') {
				return w
			}
		}
		return w[:stem]
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	m := measure(w, len(w)-1)
	if m > 1 || (m == 1 && !endsCVC(w, len(w)-1)) {
		return w[:len(w)-1]
	}
	return w
}

func step5b(w []byte) []byte {
	if hasSuffix(w, "ll") && measure(w, len(w)) > 1 {
		return w[:len(w)-1]
	}
	return w
}
