package main

import (
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/track"
)

// ckptTarget is a live deployment a checkpoint round trip copies: how to
// snapshot its nodes (the TCP transport snapshots under each node's lock),
// how to build a fresh deployment, and how to read estimates.
type ckptTarget struct {
	k         int
	snapCoord func() ([]byte, error)
	snapSite  func(i int) ([]byte, error)
	fresh     func() (dist.CoordAlgo, []dist.SiteAlgo)
	estimates func(dist.CoordAlgo) []int64
	live      []int64 // the live deployment's estimates at this point
}

// fullCheckpoint snapshots the coordinator and every site, restores the
// blobs into a fresh deployment and checks that its estimates equal the
// live ones. The round trip is timed whole and by part; allocation is
// read only on traced episodes, since reading it costs time inside the
// round trip.
func fullCheckpoint(chk *checker, where string, t ckptTarget, traced bool) checkpoint {
	var c checkpoint
	var a0 uint64
	if traced {
		a0 = allocCounter.read()
	}
	t0 := nowNs()
	coordBlob, err := t.snapCoord()
	chk.check(err == nil, "%s: snapshot coordinator: %v", where, err)
	t1 := nowNs()
	siteBlobs := make([][]byte, t.k)
	for i := range siteBlobs {
		siteBlobs[i], err = t.snapSite(i)
		chk.check(err == nil, "%s: snapshot site %d: %v", where, i, err)
	}
	t2 := nowNs()
	var snapAlloc uint64
	if traced {
		snapAlloc = allocCounter.read() - a0
	}
	t3 := nowNs()
	coord, sites := t.fresh()
	t4 := nowNs()
	err = track.RestoreCoord(coord, coordBlob)
	chk.check(err == nil, "%s: restore coordinator: %v", where, err)
	t5 := nowNs()
	for i, s := range sites {
		err := track.RestoreSite(s, siteBlobs[i])
		chk.check(err == nil, "%s: restore site %d: %v", where, i, err)
	}
	ests := t.estimates(coord)
	t6 := nowNs()
	chk.check(slices.Equal(ests, t.live), "%s: restored estimates %v ≠ live %v", where, ests, t.live)

	c.total = time.Duration(t2-t0) + time.Duration(t6-t3)
	c.snapCoord = time.Duration(t1 - t0)
	c.snapSites = time.Duration(t2 - t1)
	c.restoreCoord = time.Duration(t5 - t4)
	c.restoreSites = time.Duration(t6 - t5)
	c.snapAlloc = snapAlloc
	c.bytes = len(coordBlob)
	for _, b := range siteBlobs {
		c.bytes += len(b)
	}
	return c
}
