package clickgraph

import "hash/maphash"

// nameSeed keys every name hash in the process. It never reaches disk:
// an index is rebuilt from the names wherever names are read back.
var nameSeed = maphash.MakeSeed()

// minNameSlots is the smallest table a NameIndex allocates.
const minNameSlots = 8

// NameIndex finds a name's id in a list of distinct names, the id being
// the name's position in the list. It is an open-addressing table whose
// slots keep each name's 64-bit hash beside its id, probed linearly from
// the hash's low bits: a lookup compares bytes only with a name whose
// hash equals its own, growth re-slots every id from its stored hash
// without reading a name, and the slots hold no pointers for the
// collector to scan. Ids are slotted in ascending order at every size,
// so the table is a function of the names alone.
//
// The index holds no names: each lookup takes the list its ids index.
// The zero value is empty. Lookups may run concurrently; an add may not
// run beside anything, and callers that share an index copy it first.
type NameIndex struct {
	slots []nameSlot // a power of two of them, at most three quarters full; or none
	n     int        // ids indexed: 0 … n-1
	// weak clears these bits from every hash. It is 0 but in tests, which
	// set it to give distinct names equal hashes.
	weak uint64
}

type nameSlot struct {
	hash uint64
	ref  uint32 // the id + 1; 0 marks an empty slot
}

// NewNameIndex indexes names by position in a table sized for them. It
// also returns the position of the first name that repeats an earlier
// one, or -1; the index then holds the names before it.
func NewNameIndex(names []string) (NameIndex, int) {
	var x NameIndex
	x.slots = make([]nameSlot, slotsFor(len(names)))
	for id, name := range names {
		h := x.hash(name)
		if _, ok := x.find(names, name, h); ok {
			return x, id
		}
		x.place(h, id)
		x.n++
	}
	return x, -1
}

// slotsFor returns the table size for n ids: the least power of two, at
// least minNameSlots, that n fills at most three quarters.
func slotsFor(n int) int {
	size := minNameSlots
	for 3*size < 4*n {
		size *= 2
	}
	return size
}

// Find returns the id of name, given the names the index was built over.
func (x *NameIndex) Find(names []string, name string) (int, bool) {
	return x.find(names, name, x.hash(name))
}

func (x *NameIndex) hash(name string) uint64 { return maphash.String(nameSeed, name) &^ x.weak }

func (x *NameIndex) find(names []string, name string, h uint64) (int, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.hash == h && names[s.ref-1] == name {
			return int(s.ref - 1), true
		}
	}
}

// add indexes the next id, n, whose name has hash h and is not indexed
// yet, doubling the table first when it would be more than three quarters
// full.
func (x *NameIndex) add(h uint64) {
	if size := slotsFor(x.n + 1); size > len(x.slots) {
		hashes := make([]uint64, x.n) // by id, so ids re-slot in order
		for _, s := range x.slots {
			if s.ref != 0 {
				hashes[s.ref-1] = s.hash
			}
		}
		x.slots = make([]nameSlot, size)
		for id, h := range hashes {
			x.place(h, id)
		}
	}
	x.place(h, x.n)
	x.n++
}

// place puts id, of hash h, in the first empty slot from h's.
func (x *NameIndex) place(h uint64, id int) {
	mask := len(x.slots) - 1
	i := int(h) & mask
	for x.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = nameSlot{hash: h, ref: uint32(id + 1)}
}
