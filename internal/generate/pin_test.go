package generate_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"gapbench/internal/generate"
	"gapbench/internal/graph"
)

// TestGeneratedGraphsPinned fixes every generated graph to a digest of its
// CSR arrays: out-rows, in-rows, both weight rows and the undirected view's
// rows. Benchmark results are keyed to (name, scale, seed), so a generator
// change that moves a single byte changes what every earlier number measured.
// A digest that moves is a bug in the change, not a reason to re-record it.
func TestGeneratedGraphsPinned(t *testing.T) {
	pins := []struct {
		name   string
		scale  int
		long   bool
		digest string
	}{
		{generate.NameRoad, 8, false,
			"7806d836a4d44818497852856d536275eb7a7e12cc060e372feaa8323f908b89"},
		{generate.NameTwitter, 8, false,
			"4ea5413849a63bdd7cb38b61948cb896f1b1925345bad55c9e5e25808015777e"},
		{generate.NameWeb, 8, false,
			"842a3095ab64b0e8f65a71f491b448bca9670a1fc588b996e3eda8ec25af677a"},
		{generate.NameKron, 8, false,
			"bff89bf9baf9b9ea8df1359d9e4cb75159f3f93f4e1a19bc995a3d6d7743470f"},
		{generate.NameUrand, 8, false,
			"13dc1b9698029da270c4f0e94e5b8282e3f72af395747d15a890cdb3dec45f0e"},
		{generate.NameRoad, 12, false,
			"e89d2cf3d7fa2a33f0e7b16307e21fe2c19d7087fde4a469e5edb8b775f384fe"},
		{generate.NameTwitter, 12, false,
			"d8bf04616187b1d439fb4d8ae5579cb4184ccafc587baba91182e5cb0a747198"},
		{generate.NameWeb, 12, false,
			"0f441eaf3961f165cc99037777e5b4b7ce8c15d400d5885611d356738d7e9034"},
		{generate.NameKron, 12, false,
			"095aa5c6587f715b48c2bff13c31bb173c79669cfcd4725466eebd13afdc8bc4"},
		{generate.NameUrand, 12, false,
			"fdebc7eaedd1a3eb0f846ea84aa60285cb0c05082a8050e2c251351208cf9e2f"},
		{generate.NameKron, 15, true,
			"982789ac2f24641e136a794c02591d0084644ad474c1b4af0d2801c9c506c78e"},
		{generate.NameTwitter, 14, true,
			"1d5428cf9249254ce35bdec11f791d7008a356a7bab0fc1c98149d3632ec1c1e"},
		{generate.NameRoad, 16, true,
			"cc8063085deb82d79e3839d5962f86a09d65550632c5b1a538eab753cdc3bfb2"},
	}
	for _, p := range pins {
		if p.long && testing.Short() {
			continue
		}
		g, err := generate.ByName(p.name, p.scale, 42)
		if err != nil {
			t.Fatalf("%s-%d: %v", p.name, p.scale, err)
		}
		if got := graphDigest(g); got != p.digest {
			t.Errorf("%s-%d seed 42: digest %s, pinned %s", p.name, p.scale, got, p.digest)
		}
		g.Close()
	}
}

// graphDigest hashes g's out-CSR, in-CSR and weights, then its undirected
// view's out-CSR and weights. The index arrays delimit the rows, so a byte
// moving between rows changes the digest as surely as a changed byte.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	writeCSR(h, g)
	index, neigh := g.RawIn()
	writeInts(h, index, neigh, g.RawInWeights())
	u := g.Undirected()
	writeCSR(h, u)
	if u != g {
		u.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeCSR(h hash.Hash, g *graph.Graph) {
	index, neigh := g.RawOut()
	writeInts(h, index, neigh, g.RawOutWeights())
}

func writeInts(h hash.Hash, index []int64, neigh, weight []int32) {
	binary.Write(h, binary.LittleEndian, int64(len(index)))
	binary.Write(h, binary.LittleEndian, index)
	binary.Write(h, binary.LittleEndian, neigh)
	binary.Write(h, binary.LittleEndian, int64(len(weight)))
	binary.Write(h, binary.LittleEndian, weight)
}
