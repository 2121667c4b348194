package partition

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"simrankpp/internal/frame"
)

// Plan persistence: a compact binary encoding so the refresh path (and
// repeated sharded runs over the same graph) reuse a planned decomposition
// instead of re-paying BuildPlan's ACL clustering. The file is one
// internal/frame frame of uvarints; node id lists are delta-encoded (ids
// are ascending within a shard). The format is versioned independently of
// the snapshot format — a plan names a decomposition of one specific graph
// (Plan.Validate checks the dimensions on use).

const planMagic = "SRPPPLN1"

// WriteBinary serializes the plan.
func (p *Plan) WriteBinary(w io.Writer) error {
	e := frame.Append(nil, planMagic)
	flags := uint64(0)
	if p.Exact {
		flags = 1
	}
	for _, v := range []uint64{flags, uint64(p.NumQueries), uint64(p.NumAds),
		uint64(p.TotalCutEdges), uint64(len(p.Shards))} {
		e.Uvarint(v)
	}
	ids := func(list []int) {
		e.Uvarint(uint64(len(list)))
		prev := 0
		for _, id := range list {
			e.Uvarint(uint64(id - prev))
			prev = id
		}
	}
	for i := range p.Shards {
		s := &p.Shards[i]
		ids(s.Queries)
		ids(s.Ads)
		sf := uint64(0)
		if s.Exact {
			sf = 1
		}
		for _, v := range []uint64{sf, uint64(s.CutEdges),
			math.Float64bits(s.Conductance), s.Fingerprint} {
			e.Uvarint(v)
		}
	}
	_, err := w.Write(e.Seal())
	return err
}

// ReadPlan deserializes a plan written by WriteBinary.
func ReadPlan(r io.Reader) (*Plan, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d, err := frame.Open(raw, planMagic)
	if err != nil {
		return nil, fmt.Errorf("partition: plan: %w", err)
	}
	flags, nq, na, cut := d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
	if nq > math.MaxInt32 || na > math.MaxInt32 {
		return nil, fmt.Errorf("partition: plan dimensions implausible (%d×%d)", nq, na)
	}
	p := &Plan{
		Exact:         flags&1 != 0,
		NumQueries:    int(nq),
		NumAds:        int(na),
		TotalCutEdges: int(cut),
		// A shard takes at least six bytes: two list lengths, four fields.
		Shards: make([]Shard, d.Count(d.Uvarint(), "shard", 6)),
	}
	ids := func(limit int) ([]int, error) {
		n := d.Count(d.Uvarint(), "shard id", 1)
		if n > limit {
			return nil, fmt.Errorf("partition: shard id list of %d exceeds side size %d", n, limit)
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]int, n)
		prev := uint64(0)
		for i := range out {
			prev += d.Uvarint()
			if prev >= uint64(limit) {
				return nil, fmt.Errorf("partition: shard id %d outside side size %d", prev, limit)
			}
			out[i] = int(prev)
		}
		return out, nil
	}
	for i := range p.Shards {
		s := &p.Shards[i]
		if s.Queries, err = ids(p.NumQueries); err != nil {
			return nil, err
		}
		if s.Ads, err = ids(p.NumAds); err != nil {
			return nil, err
		}
		s.Exact = d.Uvarint()&1 != 0
		s.CutEdges = int(d.Uvarint())
		s.Conductance = math.Float64frombits(d.Uvarint())
		s.Fingerprint = d.Uvarint()
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("partition: plan: %w", err)
	}
	return p, nil
}

// WritePlanFile writes the plan to a temporary file in path's directory
// and renames it into place.
func WritePlanFile(path string, p *Plan) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := p.WriteBinary(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadPlanFile reads a plan written by WritePlanFile.
func ReadPlanFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPlan(f)
}
