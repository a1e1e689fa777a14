// Package pfs reimplements the functionality SeGShare uses from the Intel
// SGX Protected File System Library (paper §II-A): authenticated,
// confidential storage of a file in untrusted memory. On write, data is
// split into 4 KiB chunks, each chunk is encrypted with AES-GCM, and a
// Merkle hash tree over the chunk ciphertexts protects integrity,
// ordering, and extension/truncation. On read, chunks are verified before
// their plaintext is released; random access verifies a single Merkle path
// instead of the whole file.
//
// The encrypted encoding is self-contained: chunks first, then the Merkle
// tree nodes, then a fixed-size footer whose HMAC (under a key derived
// from the file key) authenticates all structural metadata and the tree
// root. A single pass suffices for writing, so the enclave only ever
// buffers one chunk (paper §VI's streaming requirement).
package pfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"

	"segshare/internal/pae"
)

const (
	// ChunkSize is the plaintext chunk granularity, matching the 4 KiB
	// chunks of Intel's Protected File System Library.
	ChunkSize = 4096
	// hashSize is the size of a Merkle tree node.
	hashSize = sha256.Size
	// footerSize is the length of the fixed trailer.
	footerSize = 8 /*magic*/ + 4 /*version*/ + 8 /*plainSize*/ + 8 /*numChunks*/ + hashSize /*root*/ + sha256.Size /*mac*/
)

var footerMagic = [8]byte{'S', 'G', 'P', 'F', 'S', 'v', '0', '1'}

// Errors returned by the protected file system.
var (
	// ErrCorrupt is returned when a protected file fails integrity
	// verification anywhere (chunk, tree, or footer).
	ErrCorrupt = errors.New("pfs: integrity verification failed")
	// ErrWriterClosed is returned when writing to a closed Writer.
	ErrWriterClosed = errors.New("pfs: writer closed")
	// ErrReadRange is returned for out-of-range random access.
	ErrReadRange = errors.New("pfs: read out of range")
)

// Overhead returns the total ciphertext expansion for a plaintext of the
// given size: per-chunk AEAD overhead, the stored Merkle tree levels, and
// the footer. The storage-overhead experiment (paper §VII-B) uses it as
// the predicted value to compare measurements against.
func Overhead(plainSize int64) int64 {
	chunks := numChunks(plainSize)
	return chunks*pae.Overhead + storedNodeCount(chunks)*hashSize + footerSize
}

func numChunks(plainSize int64) int64 {
	if plainSize == 0 {
		return 1 // a single empty chunk keeps the format uniform
	}
	return (plainSize + ChunkSize - 1) / ChunkSize
}

// storedNodeCount returns the number of Merkle nodes persisted for a tree
// with n leaves. Leaf hashes are recomputable from the chunk ciphertexts
// and are not stored; all levels above the leaves are.
func storedNodeCount(n int64) int64 {
	var total int64
	for n > 1 {
		n = (n + 1) / 2
		total += n
	}
	return total
}

// chunkKey derives the chunk-encryption key; the footer MAC uses a
// separate derived key so chunk and metadata protection are domain
// separated.
func chunkKey(fileKey pae.Key) (pae.Key, error) {
	return pae.DeriveKey(fileKey[:], "pfs-chunk-key", nil)
}

func macKey(fileKey pae.Key) ([]byte, error) {
	return pae.DeriveBytes(fileKey[:], "pfs-footer-mac", nil, 32)
}

func chunkAAD(fileID []byte, index int64) []byte {
	aad := make([]byte, 8+len(fileID))
	binary.BigEndian.PutUint64(aad, uint64(index))
	copy(aad[8:], fileID)
	return aad
}

// hashScratchPool holds prefix‖data scratch buffers for leafHash. Going
// through hash.Hash would cost heap allocations per call (the interface
// defeats escape analysis); concatenating into pooled scratch and using
// sha256.Sum256 keeps the per-chunk hot path allocation-free.
var hashScratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1+ChunkSize+pae.Overhead)
	return &b
}}

func leafHash(chunkCiphertext []byte) [hashSize]byte {
	sp := hashScratchPool.Get().(*[]byte)
	s := append(append((*sp)[:0], 0x00), chunkCiphertext...) // leaf domain separator
	out := sha256.Sum256(s)
	*sp = s[:0]
	hashScratchPool.Put(sp)
	return out
}

func innerHash(left, right [hashSize]byte) [hashSize]byte {
	var b [1 + 2*hashSize]byte
	b[0] = 0x01 // inner-node domain separator
	copy(b[1:], left[:])
	copy(b[1+hashSize:], right[:])
	return sha256.Sum256(b[:])
}

// buildTree builds a Merkle tree bottom-up over the leaf hashes. The
// returned slice stores levels from leaves upward: level 0 is the leaves,
// the last level is the single root. Odd nodes are promoted unchanged
// (Bitcoin-style duplication is avoided; promotion keeps proofs simple
// and collision-free together with the domain separators and the leaf
// count authenticated in the footer).
func buildTree(leaves [][hashSize]byte) [][][hashSize]byte {
	levels := [][][hashSize]byte{leaves}
	for len(levels[len(levels)-1]) > 1 {
		prev := levels[len(levels)-1]
		next := make([][hashSize]byte, 0, (len(prev)+1)/2)
		for i := 0; i < len(prev); i += 2 {
			if i+1 < len(prev) {
				next = append(next, innerHash(prev[i], prev[i+1]))
			} else {
				next = append(next, prev[i])
			}
		}
		levels = append(levels, next)
	}
	return levels
}

// Footer returns the trailing footer of an encoded blob: the MAC'd
// record of its plaintext size, chunk count and Merkle root. Under one
// file key, two blobs with equal length and footer carry the same
// chunks, so the footer pins a blob without hashing it again. It returns
// nil for a blob too short to hold one; the result aliases blob.
func Footer(blob []byte) []byte {
	if len(blob) < footerSize {
		return nil
	}
	return blob[len(blob)-footerSize:]
}

type footer struct {
	plainSize int64
	numChunks int64
	root      [hashSize]byte
}

func (f footer) encode(key []byte) []byte {
	out := make([]byte, 0, footerSize)
	out = append(out, footerMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, 1)
	out = binary.BigEndian.AppendUint64(out, uint64(f.plainSize))
	out = binary.BigEndian.AppendUint64(out, uint64(f.numChunks))
	out = append(out, f.root[:]...)
	mac := pae.MAC(key, out)
	return append(out, mac[:]...)
}

func parseFooter(key, raw []byte) (footer, error) {
	if len(raw) != footerSize {
		return footer{}, ErrCorrupt
	}
	body, mac := raw[:footerSize-sha256.Size], raw[footerSize-sha256.Size:]
	if !pae.VerifyMAC(key, body, mac) {
		return footer{}, ErrCorrupt
	}
	if !bytes.Equal(body[:8], footerMagic[:]) {
		return footer{}, ErrCorrupt
	}
	if binary.BigEndian.Uint32(body[8:12]) != 1 {
		return footer{}, ErrCorrupt
	}
	f := footer{
		plainSize: int64(binary.BigEndian.Uint64(body[12:20])),
		numChunks: int64(binary.BigEndian.Uint64(body[20:28])),
	}
	copy(f.root[:], body[28:28+hashSize])
	if f.plainSize < 0 || f.numChunks != numChunks(f.plainSize) {
		return footer{}, ErrCorrupt
	}
	return f, nil
}
