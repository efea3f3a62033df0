package core

import "testing"

func okey(qa int) OutcomeKey {
	return OutcomeKey{
		SigHash: 0xfeed, Workload: "EQ", Strategy: "spillbound",
		QA: qa, ExecWorkers: 4, Lambda: 0.2,
	}
}

// mustPut inserts past the doorkeeper: the first offer of a new key is
// recorded and rejected, the second admitted.
func mustPut(t *testing.T, c *LRU[OutcomeKey, []byte], k OutcomeKey, v []byte, size int64) int {
	t.Helper()
	if _, admitted := c.Put(k, v, size); admitted {
		return 0
	}
	evicted, admitted := c.Put(k, v, size)
	if !admitted {
		t.Fatalf("second offer of %+v was not admitted", k)
	}
	return evicted
}

// Every field of the key must separate hashes: a field the hash
// ignored would let one execution's offer count toward another's
// doorkeeper admission, and replicas must agree on every hash.
func TestOutcomeKeyHashCoversEveryField(t *testing.T) {
	base := OutcomeKey{
		SigHash: 1, Workload: "EQ", Strategy: "spillbound",
		QA: 3, ExecWorkers: 2, FaultSeed: 7, FaultRate: 0.1,
		Lambda: 0.2, Epoch: 5,
	}
	variants := []OutcomeKey{base, base, base, base, base, base, base, base, base}
	variants[0].SigHash = 2
	variants[1].Workload = "2D_Q91"
	variants[2].Strategy = "parqo"
	variants[3].QA = 4
	variants[4].ExecWorkers = 8
	variants[5].FaultSeed = 8
	variants[6].FaultRate = 0.2
	variants[7].Lambda = 0.3
	variants[8].Epoch = 6
	seen := map[uint64]int{base.Hash(): -1}
	for i, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("field variant %d collides with variant %d", i, prev)
		}
		seen[h] = i
	}
	if base.Hash() != base.Hash() {
		t.Fatal("Hash is not deterministic")
	}
}

func TestEstimateOutcomeBytesMonotone(t *testing.T) {
	if EstimateOutcomeBytes(nil) != 0 {
		t.Fatal("nil estimate must be zero")
	}
	small, big := []byte("{}"), make([]byte, 4096)
	s, b := EstimateOutcomeBytes(small), EstimateOutcomeBytes(big)
	if s <= 0 || b <= s {
		t.Fatalf("estimates not monotone: small=%d big=%d", s, b)
	}
	if b-s != int64(len(big)-len(small)) {
		t.Fatalf("estimate must grow by exactly the body bytes: small=%d big=%d", s, b)
	}
}

// The doorkeeper admits a key only on its second miss: an all-miss
// stream of never-repeating keys must retain nothing.
func TestOutcomeCacheDoorkeeper(t *testing.T) {
	c := NewOutcomeCache(1 << 20)
	if _, admitted := c.Put(okey(1), []byte("x"), 1); admitted {
		t.Fatal("first offer of a new key must be rejected")
	}
	if c.Len() != 0 {
		t.Fatal("rejected offer left an entry behind")
	}
	if _, admitted := c.Put(okey(1), []byte("x"), 1); !admitted {
		t.Fatal("second offer must be admitted")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after admission, want 1", c.Len())
	}
	// A resident key is always replaced in place, no doorkeeper round.
	if _, admitted := c.Put(okey(1), []byte("y"), 1); !admitted {
		t.Fatal("replacing a resident key must be admitted")
	}
	// A pure all-unique stream never inserts.
	for i := 100; i < 600; i++ {
		if _, admitted := c.Put(okey(i), []byte("z"), 1); admitted {
			t.Fatalf("unique key %d admitted on first offer", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("all-unique stream grew the cache to %d entries", c.Len())
	}
}
