package storage

import (
	"encoding/binary"
	"hash/crc32"
	"sync"

	"cbfww/internal/core"
)

// recordLog is SegmentStore's record frame and key index with its garbage
// accounting; the files the records live in are SegmentStore's.
//
// Record layout (big-endian):
//
//	magic(1) kind(1) summary(1) id(8) version(4) length(4) payload crc32(4)
//
// kind is 1 (put) or 2 (tombstone, length 0) and the CRC covers header +
// payload. The magic byte tells an mmap tier's files (0xCB) from the
// other logs' (0xC5).
// Overwrites and deletes never touch old bytes — a put of an existing key
// appends a fresh record, a delete appends a tombstone — so live data
// slowly drowns in garbage until the store compacts.
type recordLog struct {
	magic byte

	mu    sync.RWMutex
	index map[BlobKey]recLoc
	// live/dead record bytes (frames included), for the garbage ratio.
	liveBytes, deadBytes int64
	// Compactions counts completed compaction passes (for tests/stats).
	Compactions int
}

// recLoc locates one live record's payload.
type recLoc struct {
	seg int   // segment number
	off int64 // payload offset within the file
	n   int   // payload length
}

const (
	recKindPut    = 1
	recKindDelete = 2
	recHeaderLen  = 1 + 1 + 1 + 8 + 4 + 4
	recTrailerLen = 4 // crc32
)

// recLen is the on-medium size of a record with an n-byte payload.
func recLen(n int) int64 { return int64(recHeaderLen + n + recTrailerLen) }

// putHeader encodes a record header into hdr[:recHeaderLen].
func (l *recordLog) putHeader(hdr []byte, kind byte, k BlobKey, n int) {
	hdr[0], hdr[1], hdr[2] = l.magic, kind, 0
	if k.Summary {
		hdr[2] = 1
	}
	binary.BigEndian.PutUint64(hdr[3:11], uint64(k.ID))
	binary.BigEndian.PutUint32(hdr[11:15], uint32(k.Version))
	binary.BigEndian.PutUint32(hdr[15:19], uint32(n))
}

// parseHeader decodes a record header; ok is false for a foreign magic or
// an unknown kind — where replay stops.
func (l *recordLog) parseHeader(hdr []byte) (kind byte, k BlobKey, n int, ok bool) {
	if hdr[0] != l.magic || (hdr[1] != recKindPut && hdr[1] != recKindDelete) {
		return 0, BlobKey{}, 0, false
	}
	k = BlobKey{
		ID:      core.ObjectID(binary.BigEndian.Uint64(hdr[3:11])),
		Version: int(binary.BigEndian.Uint32(hdr[11:15])),
		Summary: hdr[2] == 1,
	}
	return hdr[1], k, int(binary.BigEndian.Uint32(hdr[15:19])), true
}

// frames reports whether hdr is the put header of k with an n-byte
// payload: the O(1) identity check Open runs before handing out bytes.
func (l *recordLog) frames(hdr []byte, k BlobKey, n int) bool {
	kind, hk, hn, ok := l.parseHeader(hdr)
	return ok && kind == recKindPut && hk == k && hn == n
}

// recCRC is the record checksum over header + payload.
func recCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload)
}

// note applies one record to the index — replay and appends both come
// through here. Whatever k held before becomes garbage; a put is live at
// loc, a tombstone is garbage itself. Requires mu.
func (l *recordLog) note(kind byte, k BlobKey, loc recLoc) {
	if old, ok := l.index[k]; ok {
		l.liveBytes -= recLen(old.n)
		l.deadBytes += recLen(old.n)
	}
	if kind == recKindPut {
		l.index[k] = loc
		l.liveBytes += recLen(loc.n)
	} else {
		delete(l.index, k)
		l.deadBytes += recLen(0)
	}
}

// liveKeysLocked lists the live keys in (ID, Version, Summary) order, so
// a compaction lays the new generation out deterministically. Requires mu.
func (l *recordLog) liveKeysLocked() []BlobKey {
	keys := make([]BlobKey, 0, len(l.index))
	for k := range l.index {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func (l *recordLog) Contains(k BlobKey) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.index[k]
	return ok
}

func (l *recordLog) Keys() []BlobKey {
	l.mu.RLock()
	defer l.mu.RUnlock()
	keys := make([]BlobKey, 0, len(l.index))
	for k := range l.index {
		keys = append(keys, k)
	}
	return keys
}

// GarbageRatio reports the dead fraction of all record bytes written.
func (l *recordLog) GarbageRatio() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	total := l.liveBytes + l.deadBytes
	if total == 0 {
		return 0
	}
	return float64(l.deadBytes) / float64(total)
}
