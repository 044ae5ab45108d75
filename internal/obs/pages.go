package obs

// pageSize is how many elements one page of a pageStore holds: large
// enough that page allocations are rare (one per 256 events, ~57 KB),
// small enough that a short recording does not over-allocate.
const pageSize = 256

// pageStore is an append-only sequence kept in fixed-size pages. A
// growing slice copies everything it holds each time it regrows; a page
// is never copied once allocated, so appending costs one allocation per
// pageSize elements and nothing else. The zero value is an empty store.
type pageStore[T any] struct {
	pages [][]T
	n     int
}

// add appends v.
func (s *pageStore[T]) add(v T) {
	if s.n%pageSize == 0 {
		s.pages = append(s.pages, make([]T, 0, pageSize))
	}
	pg := &s.pages[len(s.pages)-1]
	*pg = append(*pg, v)
	s.n++
}

// len reports the number of elements.
func (s *pageStore[T]) len() int { return s.n }

// last returns the most recent element (the zero value when empty).
func (s *pageStore[T]) last() T {
	if s.n == 0 {
		var zero T
		return zero
	}
	pg := s.pages[len(s.pages)-1]
	return pg[len(pg)-1]
}

// all returns the elements in append order as a fresh slice (nil when
// empty); mutating it does not disturb the store.
func (s *pageStore[T]) all() []T {
	if s.n == 0 {
		return nil
	}
	out := make([]T, 0, s.n)
	for _, pg := range s.pages {
		out = append(out, pg...)
	}
	return out
}
