package pipeline

// Ring holds one machine's in-flight dynamic instructions, oldest first, in
// a single power-of-two array of records. The paper's machines fetch,
// retire and squash in program order, so the live records are always one
// run of consecutive positions: fetch appends at the tail, retirement
// advances the head, and a squash pulls the tail back. Fetched groups and
// coupling-queue groups are Spans of positions, read in place.
//
// Positions count up from zero for each machine and never wrap; only the
// array index does. A position is not a dynamic ID: IDs keep increasing
// across a squash, positions are reused.
type Ring struct {
	buf        []DynInst
	mask       uint64
	head, tail uint64 // oldest live position; position the next fetch takes
	// capacity is the most records the machine can hold in flight (see
	// NewFrontEnd). The array may be larger when its arena served a
	// larger machine before.
	capacity int
}

// Span is the run of ring positions [Start, End): one issue group, or 2Pre's
// merged run of adjacent groups.
type Span struct{ Start, End uint64 }

// Len returns the number of positions in s.
//
//flea:hotpath
//flea:inline
func (s Span) Len() int { return int(s.End - s.Start) }

// At returns the record at position p, which must be live (Head ≤ p <
// Tail). The pointer stays valid until p is retired or squashed.
//
//flea:hotpath
//flea:inline
//flea:noescape
func (r *Ring) At(p uint64) *DynInst { return &r.buf[p&r.mask] }

// Head returns the position of the oldest live record.
//
//flea:hotpath
//flea:inline
func (r *Ring) Head() uint64 { return r.head }

// Tail returns the position the next fetched record takes.
//
//flea:hotpath
//flea:inline
func (r *Ring) Tail() uint64 { return r.tail }

// Len returns the number of live records.
//
//flea:hotpath
//flea:inline
func (r *Ring) Len() int { return int(r.tail - r.head) }

// overfull reports whether more records are live than the ring was sized
// for: a machine that breaks its own bounds, which would soon overwrite
// live records.
//
//flea:hotpath
//flea:inline
func (r *Ring) overfull() bool { return r.Len() > r.capacity }

// Push claims the tail position for a newly fetched record, zeroed. The
// front end is its only caller in the machines.
//
//flea:hotpath
//flea:inline
//flea:noescape
func (r *Ring) Push() *DynInst {
	d := r.At(r.tail)
	*d = DynInst{}
	r.tail++
	return d
}

// Retire releases every record before position p: they retired, or were
// dropped with the group that held them.
//
//flea:hotpath
//flea:inline
func (r *Ring) Retire(p uint64) { r.head = p }

// Truncate squashes every record at position p or later. A p at or past the
// tail changes nothing, so the squashes of one recovery may come in any
// order.
//
//flea:hotpath
//flea:inline
func (r *Ring) Truncate(p uint64) { r.tail = min(r.tail, p) }
