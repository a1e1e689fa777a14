package main

import (
	"crypto/rand"
	"sort"
	"time"

	"segshare/internal/acl"
	"segshare/internal/mhash"
	"segshare/internal/pae"
	"segshare/internal/pfs"
)

// kernelTimes are layer timings taken through the layers' public
// functions, for work no wrapper can see during a request.
type kernelTimes struct {
	sealMBps, openMBps float64
	aclDecodeUs        float64
	deriveUs           float64
	mhashUs            float64
}

// medianOf runs f in batches of reps and returns the median time per
// call in microseconds.
func medianOf(batches, reps int, f func() error) (float64, error) {
	var per []float64
	for range batches {
		start := time.Now()
		for range reps {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(reps)/1e3)
	}
	sort.Float64s(per)
	return per[len(per)/2], nil
}

// measureKernels times pfs seal/open of an 8 MiB file with the default
// worker count, the decode of the largest ACL and member list in the
// corpus, one per-file key derivation, and one multiset-hash update.
func measureKernels(w *workload) (kernelTimes, error) {
	var kt kernelTimes
	key, err := pae.NewRandomKey()
	if err != nil {
		return kt, err
	}
	plain := make([]byte, bulkSize)
	if _, err := rand.Read(plain); err != nil {
		return kt, err
	}
	id := []byte("/kernel/file")
	workers := pfs.DefaultWorkers()
	var blob []byte
	sealUs, err := medianOf(5, 1, func() error {
		var err error
		blob, err = pfs.EncryptWorkers(key, id, plain, workers)
		return err
	})
	if err != nil {
		return kt, err
	}
	openUs, err := medianOf(5, 1, func() error {
		_, err := pfs.DecryptWorkers(key, id, blob, workers)
		return err
	})
	if err != nil {
		return kt, err
	}
	kt.sealMBps = float64(bulkSize) / sealUs
	kt.openMBps = float64(bulkSize) / openUs

	// The largest ACL is a leaf directory's: alice's group as owner, the
	// team grant and every filler permission group. The largest member
	// list is alice's or bob's: their own group and every team group.
	a := &acl.ACL{}
	a.AddOwner(1)
	for g := range 1 + fillerPerms {
		a.SetPermission(acl.GroupID(100+g), acl.PermRead)
	}
	m := &acl.MemberList{}
	for g := range 1 + w.teams {
		m.Add(acl.GroupID(1000 + g))
	}
	aclBody, memberBody := a.Encode(), m.Encode()
	kt.aclDecodeUs, err = medianOf(5, 2000, func() error {
		if _, err := acl.DecodeACL(aclBody); err != nil {
			return err
		}
		_, err := acl.DecodeMemberList(memberBody)
		return err
	})
	if err != nil {
		return kt, err
	}

	root := make([]byte, 32)
	kt.deriveUs, err = medianOf(5, 2000, func() error {
		_, err := pae.DeriveKey(root, "file-key/content", id)
		return err
	})
	if err != nil {
		return kt, err
	}

	acc := mhash.NewAccumulator(root)
	h := acc.HashMultiset([][]byte{[]byte("a"), []byte("b")})
	oldEl, newEl := make([]byte, 64), make([]byte, 64)
	newEl[0] = 1
	kt.mhashUs, err = medianOf(5, 2000, func() error {
		h = acc.Replace(h, oldEl, newEl)
		oldEl, newEl = newEl, oldEl
		return nil
	})
	return kt, err
}
