package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/regionserver"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const (
	servingTable     = "usertable"
	servingRegions   = 8
	servingValueSize = 100
)

// runServing is the serving lab: 4 region servers and a pre-split,
// bulk-loaded table behind the front-line cache tier. One closed-loop
// client issues YCSB-A (50% Get, 50% Put, Zipf keys); each op waits for
// the engine to reach its completion time before the next is issued.
// Every Get is checked against a client-side model of the last
// acknowledged write, and every written key is read back at the end.
func runServing(h *harness, sz sizes) error {
	seed := h.res.Seed
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(5, 1))
	c, err := regionserver.New(eng, vfs.NewMemFS(), topo, regionserver.Options{
		Servers: 4,
		Obs:     reg,
		KV:      kvstore.Config{FlushThresholdBytes: 32 << 10, WALSegmentBytes: 16 << 10},
	})
	if err != nil {
		return err
	}
	defer c.Stop()

	var load, ops []datagen.YCSBOp
	var values [][]byte // op index → the value its Put writes
	if err := h.gen(func() error {
		load = datagen.YCSBLoad(sz.rsRows, servingValueSize)
		ops, err = datagen.YCSB(datagen.YCSBOpts{Mix: "a", Records: sz.rsRows, Ops: sz.rsOps, ValueSize: servingValueSize, Seed: seed})
		values = make([][]byte, len(ops))
		for i, op := range ops {
			if op.Type == datagen.YCSBUpdate {
				// Stamp the op index so every write is distinguishable and a
				// stale read cannot pass the model check by accident.
				values[i] = append(strconv.AppendInt(nil, int64(i), 10), op.Value...)[:servingValueSize]
			}
		}
		return err
	}); err != nil {
		return err
	}
	var splitKeys []string
	for i := 1; i < servingRegions; i++ {
		splitKeys = append(splitKeys, datagen.YCSBKey(i*sz.rsRows/servingRegions))
	}
	if err := c.Master.CreateTable(servingTable, splitKeys); err != nil {
		return err
	}
	kvs := make([]kvstore.KV, len(load))
	model := make(map[string][]byte, len(load))
	for i, op := range load {
		kvs[i] = kvstore.KV{Key: op.Key, Value: op.Value}
		model[op.Key] = op.Value
	}
	if err := c.Master.BulkLoadTable(servingTable, kvs); err != nil {
		return err
	}
	cl := c.NewCachedClient(16, 128)
	written := map[string]bool{}

	h.beginMeasure(eng)
	for i, op := range ops {
		t0 := time.Now()
		var done sim.Time
		switch op.Type {
		case datagen.YCSBRead:
			tg := h.p.start()
			v, d, err := cl.Get(eng.Now(), servingTable, op.Key)
			h.p.stop(tg, &h.p.rsGet)
			done = d
			h.res.InputMB += float64(len(op.Key)+len(v)) / mb
			if err != nil {
				h.op(false, "get %s: %v", op.Key, err)
			} else {
				h.op(bytes.Equal(v, model[op.Key]), "get %s returned a value other than the last acknowledged write", op.Key)
			}
		case datagen.YCSBUpdate:
			v := values[i]
			tp := h.p.start()
			d, err := cl.Put(eng.Now(), servingTable, op.Key, v)
			h.p.stop(tp, &h.p.rsPut)
			done = d
			h.res.InputMB += float64(len(op.Key)+len(v)) / mb
			h.op(err == nil, "put %s: %v", op.Key, err)
			if err == nil {
				model[op.Key] = v
				written[op.Key] = true
			}
		default:
			return fmt.Errorf("unexpected YCSB-A op %q", op.Type)
		}
		h.runUntil(done)
		h.opLat = append(h.opLat, float32(time.Since(t0)))
		h.res.Ops++
	}
	h.endMeasure()

	// Final readback of every written key through a cache-free client:
	// the authoritative tier must hold the last acknowledged write.
	keys := make([]string, 0, len(written))
	for k := range written {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if h.corrupt && len(keys) > 0 {
		model[keys[0]] = []byte("not what was written")
	}
	verify := c.NewClient()
	for _, k := range keys {
		v, _, err := verify.Get(eng.Now(), servingTable, k)
		h.op(err == nil && bytes.Equal(v, model[k]), "readback %s: %v", k, err)
		h.fingerprint(k, v)
	}
	meta, err := c.Master.MetaLogBytes()
	if err != nil {
		return err
	}
	h.fingerprint("meta", meta)
	err = c.Master.CheckMeta()
	h.op(err == nil, "META after the run: %v", err)
	h.seal(reg)
	return nil
}
