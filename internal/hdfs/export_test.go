package hdfs

import "slices"

// Test hooks into the replication monitor, compiled only into this
// package's tests.

// ReplicationMonitorPass runs one replication-monitor pass now.
func (nn *NameNode) ReplicationMonitorPass() { nn.replicationMonitor() }

// ReplQueueLen reports how many blocks wait in the replication queue.
func (nn *NameNode) ReplQueueLen() int { return len(nn.replQueue) }

// UnqueuedUnsettled is the oracle for the replication queue. It scans
// every block in ID order, as a queue-less monitor would, and returns the
// blocks that scan could act on but the queue does not hold. A block
// outside the queue must be one the scan would leave alone: missing
// (live == 0), on target (live == expected), or waiting on a copy
// already in flight.
func (nn *NameNode) UnqueuedUnsettled() []BlockID {
	ids := make([]BlockID, 0, len(nn.blocks))
	for id := range nn.blocks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []BlockID
	for _, id := range ids {
		if _, queued := nn.replQueue[id]; queued {
			continue
		}
		bm := nn.blocks[id]
		live := nn.liveReplicas(bm)
		if live == 0 || live == bm.expected || nn.pendingRepl[id] {
			continue
		}
		out = append(out, id)
	}
	return out
}

// ReplRetryLen reports how many blocks wait out a retry backoff.
func (nn *NameNode) ReplRetryLen() int { return len(nn.replRetryAt) }
