package mem

// The ALAT and the store buffer are FIFO-ordered by dynamic ID: entries
// arrive in increasing ID order and the B-pipe removes them oldest first.
// Each keeps its live entries as the window s[head:] of one slice, so a
// removal at the head only advances head; pushBack keeps that array reused
// instead of regrown.

// pushBack appends e to the live window s[*head:]. When the array is full
// and at least half of it lies before the window, the window first slides
// to the front of the array: each slide then pays for at least as many
// appends as it copies entries, and once the array has grown to twice the
// largest live window, appending never allocates.
//
//flea:hotpath
func pushBack[T any](s []T, head *int, e T) []T {
	if len(s) == cap(s) && 2*(*head) >= len(s) {
		s = s[:copy(s, s[*head:])]
		*head = 0
	}
	s = append(s, e)
	return s
}
