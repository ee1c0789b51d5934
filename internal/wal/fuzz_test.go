package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzScanSegment: scanSegment never panics on arbitrary segment bytes. It
// accounts for every byte after the header exactly once — valid records,
// corrupt stretches and at most one torn tail, in order, with no gap or
// overlap — and the records it keeps have strictly increasing Seq.
func FuzzScanSegment(f *testing.F) {
	good := binary.LittleEndian.AppendUint64([]byte(segMagic), 1)
	for seq := uint64(1); seq <= 3; seq++ {
		good = encodeRecord(good, Record{Seq: seq, Op: OpAddPref, A: int64(seq), B: 7})
	}
	f.Add(good)
	flipped := bytes.Clone(good)
	flipped[segHeaderLen+recLen+recHeaderLen+3] ^= 0xff
	f.Add(flipped)
	f.Add(good[:len(good)-5])
	huge := bytes.Clone(good)
	binary.LittleEndian.PutUint32(huge[segHeaderLen+recLen:], maxPayloadLen+1)
	f.Add(huge)
	f.Add(encodeRecord(bytes.Clone(good), Record{Seq: 2, Op: OpAddUser, A: 9}))
	f.Add(encodeRecord(bytes.Clone(good), Record{Seq: 4, Op: opMax + 1}))
	f.Add([]byte(segMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, sc := scanSegment(raw)
		if sc.badHeader {
			if recs != nil || sc.spans != nil || sc.corrupt != nil || sc.tornLen != 0 {
				t.Fatal("a segment with a bad header had bytes classified")
			}
			return
		}
		pos, i, j, torn := segHeaderLen, 0, 0, sc.tornLen == 0
		for pos < len(raw) {
			end := pos
			switch {
			case i < len(sc.spans) && sc.spans[i][0] == pos:
				end = sc.spans[i][1]
				i++
			case j < len(sc.corrupt) && sc.corrupt[j].off == pos:
				end = sc.corrupt[j].end
				j++
			case !torn && sc.tornOff == pos:
				end = pos + sc.tornLen
				torn = true
			}
			if end <= pos {
				t.Fatalf("no span starts at byte %d of %d", pos, len(raw))
			}
			pos = end
		}
		if pos != len(raw) || i != len(sc.spans) || j != len(sc.corrupt) || !torn {
			t.Fatalf("spans end at byte %d of %d; %d/%d valid, %d/%d corrupt and torn=%v used",
				pos, len(raw), i, len(sc.spans), j, len(sc.corrupt), torn)
		}
		if len(recs) != len(sc.spans) {
			t.Fatalf("%d records for %d valid spans", len(recs), len(sc.spans))
		}
		for k := 1; k < len(recs); k++ {
			if recs[k].Seq <= recs[k-1].Seq {
				t.Fatalf("record %d has Seq %d after %d", k, recs[k].Seq, recs[k-1].Seq)
			}
		}
	})
}
