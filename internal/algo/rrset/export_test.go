package rrset

// FlushesDuring runs build and returns how many flushes of a non-empty
// arena its collections made, so a test outside the package can tell an
// index built across several flushes from one built in one.
func FlushesDuring(build func()) int {
	flushes := 0
	collectionHook = func(c *collection, at string) {
		if at == "flush" && c.arena.Len() > 0 {
			flushes++
		}
	}
	defer func() { collectionHook = nil }()
	build()
	return flushes
}
