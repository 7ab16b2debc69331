package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dpm/internal/obs"
)

// loadFixture copies one layout of a checked-in store (testdata/v3; see
// its MANIFEST) into a memory backend.
func loadFixture(t *testing.T, dir, layout string) *MemBackend {
	t.Helper()
	root := filepath.Join("testdata", dir, layout)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	be := NewMemBackend()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(root, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := be.Create(e.Name(), data); err != nil {
			t.Fatal(err)
		}
	}
	return be
}

// tornAndFlipped builds a one-shard store of what a crash and bit rot
// leave: a sealed segment with a byte flipped inside its stream, and a
// segment never sealed, cut inside its last flush.
func tornAndFlipped(t *testing.T) *MemBackend {
	t.Helper()
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1, CompactMin: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendSealed(t, st, 0, 200)
	for i := 200; i < 260; i++ {
		m, line := compRec(i)
		if err := st.AppendLine(m, line); err != nil {
			t.Fatal(err)
		}
	}
	sealed, torn := segName(0, 1, 1, 0), segName(0, 2, 2, 0)
	data, err := be.Read(sealed)
	if err != nil {
		t.Fatal(err)
	}
	data = append([]byte(nil), data...)
	data[(len(data)-TailSize)/2] ^= 0x40
	if err := be.Create(sealed, data); err != nil {
		t.Fatal(err)
	}
	if data, err = be.Read(torn); err != nil {
		t.Fatal(err)
	}
	if err := be.Create(torn, data[:len(data)-10]); err != nil {
		t.Fatal(err)
	}
	return be
}

// openedSegments is Store.Segments() after Open over each store: for the
// checked-in ones as the store reported it while it still read the v1
// and v2 formats as well, and for torn+flipped as it reported it while
// Open still decoded every file into records (ParseSegment) and
// recovered through an encoder of its own. What adopting, recovering and
// sizing a segment must not change — except the Bytes of a segment Open
// salvaged (the never-sealed tail of each +tail and +archives shard, and
// both torn+flipped segments), which since a rewrite stopped sizing its
// records are the size on disk of the file it was salvaged from, and
// every DiskBytes, which a segment of one stream and a fixed tail
// lowered. The flipped segment of torn+flipped salvages no record: its
// stream fails its CRC, and no part of it can be trusted.
var openedSegments = map[string][]SegmentInfo{
	"cap1k": {
		{"s0-000001-000001.seg", 0, 1, 1, 1073, 363, 0, Index{9, 0, 400, 0x48, 0x1f000000000, 0x48a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 1130, 407, 0, Index{10, 300, 750, 0x48, 0x1d000000000, 0x68a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 1092, 380, 0, Index{9, 850, 1100, 0x48, 0x1f000000000, 0x28a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 1043, 359, 0, Index{10, 1150, 1500, 0x48, 0xf000000000, 0x688}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 1045, 351, 0, Index{9, 1500, 2050, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 1147, 419, 0, Index{11, 2000, 2700, 0x48, 0xf000000000, 0x682}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1095, 382, 0, Index{9, 2800, 3050, 0x48, 0xf000000000, 0x28a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 1143, 372, 0, Index{10, 3150, 3550, 0x48, 0x1e000000000, 0x68a}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 1152, 353, 0, Index{10, 3450, 3950, 0x48, 0x1f000000000, 0x60a}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 1083, 421, 0, Index{10, 3950, 4300, 0x48, 0x1d000000000, 0x688}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 1114, 336, 0, Index{11, 4200, 4700, 0x48, 0x1e000000000, 0x60a}, true},
		{"s0-000012-000012.seg", 0, 12, 12, 1143, 401, 0, Index{10, 4650, 5050, 0x48, 0x1b000000000, 0x68a}, true},
		{"s0-000013-000013.seg", 0, 13, 13, 1047, 318, 0, Index{9, 4950, 5500, 0x48, 0x1d000000000, 0x688}, true},
		{"s0-000014-000014.seg", 0, 14, 14, 1100, 368, 0, Index{10, 5400, 5950, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000015-000015.seg", 0, 15, 15, 88, 106, 0, Index{1, 5850, 5850, 0x8, 0x10000000000, 0x200}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 1041, 365, 0, Index{10, 50, 400, 0x12, 0x1d000000000, 0x682}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 1075, 387, 0, Index{9, 450, 850, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 1044, 353, 0, Index{9, 750, 1150, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 1091, 368, 0, Index{9, 1200, 1650, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 1043, 384, 0, Index{9, 1650, 2050, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 1052, 336, 0, Index{9, 2100, 2500, 0x12, 0x16000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1144, 372, 0, Index{10, 2400, 2850, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 1136, 387, 0, Index{10, 2900, 3350, 0x12, 0x17000000000, 0x68a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 1108, 374, 0, Index{10, 3300, 3750, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 1102, 293, 0, Index{10, 3750, 4100, 0x12, 0x1d000000000, 0x608}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 1088, 362, 0, Index{10, 4050, 4450, 0x12, 0x1f000000000, 0x688}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 1100, 373, 0, Index{9, 4500, 5050, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000013-000013.seg", 1, 13, 13, 1084, 378, 0, Index{9, 4950, 5350, 0x12, 0x1f000000000, 0x28a}, true},
		{"s1-000014-000014.seg", 1, 14, 14, 1111, 368, 0, Index{10, 5300, 5750, 0x12, 0x17000000000, 0x60a}, true},
		{"s1-000015-000015.seg", 1, 15, 15, 308, 183, 0, Index{3, 5750, 5900, 0x12, 0x19000000000, 0x480}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 1078, 386, 0, Index{10, 0, 500, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 1123, 372, 0, Index{10, 600, 1000, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 1135, 444, 0, Index{9, 1100, 1450, 0x24, 0xe000000000, 0x48a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 1060, 368, 0, Index{10, 1350, 1900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 1058, 367, 0, Index{10, 1850, 2200, 0x24, 0x15000000000, 0x68a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 1084, 399, 0, Index{9, 2100, 2600, 0x24, 0x1e000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 1044, 326, 0, Index{8, 2550, 2800, 0x24, 0x1e000000000, 0x8a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 1040, 419, 0, Index{9, 2750, 3250, 0x24, 0x1d000000000, 0x482}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 1094, 345, 0, Index{10, 3150, 3800, 0x24, 0x1e000000000, 0x688}, true},
		{"s2-000010-000010.seg", 2, 10, 10, 1154, 359, 0, Index{10, 3750, 4450, 0x24, 0x1f000000000, 0x60a}, true},
		{"s2-000011-000011.seg", 2, 11, 11, 1090, 412, 0, Index{9, 4500, 5050, 0x24, 0x1f000000000, 0x28a}, true},
		{"s2-000012-000012.seg", 2, 12, 12, 1147, 391, 0, Index{10, 5000, 5500, 0x24, 0x17000000000, 0x68a}, true},
		{"s2-000013-000013.seg", 2, 13, 13, 1038, 381, 0, Index{9, 5550, 5900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000014-000014.seg", 2, 14, 14, 389, 206, 0, Index{3, 5850, 5900, 0x24, 0x8000000000, 0x8a}, true},
	},
	"cap1k+tail": {
		{"s0-000001-000001.seg", 0, 1, 1, 1076, 386, 0, Index{9, 0, 400, 0x48, 0xf000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 1129, 386, 0, Index{10, 350, 700, 0x48, 0x1d000000000, 0x68a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 1051, 337, 0, Index{9, 650, 1100, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 1094, 384, 0, Index{10, 1150, 1600, 0x48, 0x1f000000000, 0x682}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 1052, 369, 0, Index{10, 1650, 1900, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 1103, 348, 0, Index{9, 1900, 2400, 0x48, 0x1c000000000, 0x60a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1063, 348, 0, Index{9, 2450, 2850, 0x48, 0x1d000000000, 0x60a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 1059, 366, 0, Index{10, 2850, 3200, 0x48, 0x1f000000000, 0x282}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 1051, 351, 0, Index{9, 3300, 3550, 0x48, 0x1d000000000, 0x68a}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 1050, 361, 0, Index{10, 3600, 3950, 0x48, 0x1b000000000, 0x288}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 1055, 358, 0, Index{9, 3900, 4600, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000012-000012.seg", 0, 12, 12, 1095, 382, 0, Index{9, 4500, 5050, 0x48, 0x1e000000000, 0x48a}, true},
		{"s0-000013-000013.seg", 0, 13, 13, 699, 272, 0, Index{6, 5000, 5350, 0x48, 0x13000000000, 0x28a}, true},
		{"s0-000014-000014.seg", 0, 14, 14, 294, 282, 0, Index{9, 5400, 5950, 0x48, 0xe000000000, 0x68a}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 1094, 355, 0, Index{10, 50, 450, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 1030, 395, 0, Index{9, 650, 1000, 0x12, 0x1f000000000, 0x28a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 1140, 375, 0, Index{10, 1050, 1600, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 1092, 369, 0, Index{9, 1550, 2150, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 1049, 352, 0, Index{9, 2150, 2500, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 1129, 411, 0, Index{10, 2400, 2800, 0x12, 0x1f000000000, 0x688}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1062, 375, 0, Index{9, 2700, 3200, 0x12, 0x1e000000000, 0x482}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 1105, 383, 0, Index{10, 3250, 3600, 0x12, 0xd000000000, 0x68a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 1087, 412, 0, Index{10, 3600, 3900, 0x12, 0xf000000000, 0x28a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 1064, 368, 0, Index{11, 3900, 4250, 0x12, 0x1b000000000, 0x682}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 1089, 410, 0, Index{9, 4250, 4750, 0x12, 0x1f000000000, 0x48a}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 1092, 383, 0, Index{10, 4650, 5000, 0x12, 0x1b000000000, 0x68a}, true},
		{"s1-000013-000013.seg", 1, 13, 13, 963, 344, 0, Index{9, 4950, 5250, 0x12, 0x1f000000000, 0x688}, true},
		{"s1-000014-000014.seg", 1, 14, 14, 1128, 365, 0, Index{9, 5400, 5800, 0x12, 0x1b000000000, 0x48a}, true},
		{"s1-000015-000015.seg", 1, 15, 15, 248, 256, 0, Index{7, 5700, 5950, 0x12, 0x17000000000, 0x682}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 1077, 349, 0, Index{9, 0, 200, 0x24, 0x1f000000000, 0x28a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 1102, 337, 0, Index{11, 300, 750, 0x24, 0x1f000000000, 0x60a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 1139, 375, 0, Index{10, 800, 1200, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 1054, 355, 0, Index{9, 1200, 1600, 0x24, 0x1e000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 1087, 397, 0, Index{9, 1500, 2050, 0x24, 0x17000000000, 0x28a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 1090, 390, 0, Index{10, 2050, 2350, 0x24, 0x17000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 1056, 345, 0, Index{10, 2250, 2900, 0x24, 0x1a000000000, 0x688}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 1041, 426, 0, Index{9, 2850, 3350, 0x24, 0x1f000000000, 0x682}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 1132, 367, 0, Index{9, 3400, 4150, 0x24, 0x1f000000000, 0x28a}, true},
		{"s2-000010-000010.seg", 2, 10, 10, 1128, 442, 0, Index{10, 4100, 4450, 0x24, 0x1f000000000, 0x682}, true},
		{"s2-000011-000011.seg", 2, 11, 11, 1054, 337, 0, Index{9, 4500, 5050, 0x24, 0x1e000000000, 0x68a}, true},
		{"s2-000012-000012.seg", 2, 12, 12, 1040, 409, 0, Index{9, 4950, 5300, 0x24, 0x1f000000000, 0x682}, true},
		{"s2-000013-000013.seg", 2, 13, 13, 182, 125, 0, Index{2, 5250, 5350, 0x4, 0x3000000000, 0x400}, true},
		{"s2-000014-000014.seg", 2, 14, 14, 1084, 401, 0, Index{9, 5450, 5800, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000015-000015.seg", 2, 15, 15, 168, 186, 0, Index{6, 5750, 5950, 0x24, 0xe000000000, 0x60a}, true},
	},
	"cap2k": {
		{"s0-000001-000001.seg", 0, 1, 1, 2081, 663, 0, Index{17, 0, 1000, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 2093, 612, 0, Index{18, 900, 1650, 0x48, 0xf000000000, 0x68a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 2104, 644, 0, Index{20, 1800, 2500, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 2066, 547, 0, Index{18, 2550, 3500, 0x48, 0x17000000000, 0x68a}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 2152, 601, 0, Index{18, 3450, 4500, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 2071, 616, 0, Index{19, 4500, 5500, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 967, 336, 0, Index{9, 5550, 5950, 0x48, 0x1f000000000, 0x68a}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 2115, 627, 0, Index{18, 0, 700, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 2095, 613, 0, Index{19, 600, 1600, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 2054, 565, 0, Index{18, 1650, 2250, 0x12, 0xf000000000, 0x68a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 2114, 585, 0, Index{19, 2450, 3100, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 2105, 633, 0, Index{18, 3100, 3950, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 2048, 629, 0, Index{18, 4050, 4850, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 2169, 645, 0, Index{19, 4800, 5800, 0x12, 0x1e000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 221, 131, 0, Index{2, 5700, 5750, 0x2, 0x1000000000, 0x408}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 2122, 638, 0, Index{19, 0, 600, 0x24, 0x1e000000000, 0x68a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 2094, 569, 0, Index{19, 650, 1550, 0x24, 0x17000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 2132, 646, 0, Index{18, 1550, 2500, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 2054, 625, 0, Index{17, 2400, 3400, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 2056, 609, 0, Index{18, 3300, 3900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 2048, 576, 0, Index{18, 3900, 4650, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 2137, 628, 0, Index{18, 4650, 5150, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 2067, 577, 0, Index{18, 5100, 5800, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 574, 259, 0, Index{5, 5850, 5900, 0x24, 0x16000000000, 0x482}, true},
	},
	"cap2k+tail": {
		{"s0-000001-000001.seg", 0, 1, 1, 2078, 612, 0, Index{18, 0, 700, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 2050, 643, 0, Index{19, 600, 1300, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 2101, 575, 0, Index{18, 1200, 1900, 0x48, 0x1f000000000, 0x48a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 2149, 589, 0, Index{18, 1850, 2750, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 2122, 632, 0, Index{18, 2900, 3500, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 2136, 583, 0, Index{18, 3600, 4450, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1402, 489, 0, Index{13, 4500, 5350, 0x48, 0x1f000000000, 0x682}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 429, 347, 0, Index{16, 5450, 5950, 0x48, 0x1f000000000, 0x68a}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 2071, 669, 0, Index{19, 0, 1000, 0x12, 0x1f000000000, 0x688}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 2124, 573, 0, Index{20, 900, 1750, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 2119, 598, 0, Index{20, 1850, 2700, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 2110, 599, 0, Index{19, 2750, 3600, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 2133, 628, 0, Index{19, 3600, 4150, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 2050, 559, 0, Index{17, 4150, 4850, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1450, 476, 0, Index{14, 4800, 5350, 0x12, 0x1d000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 332, 300, 0, Index{11, 5400, 5950, 0x12, 0xf000000000, 0x682}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 2123, 590, 0, Index{18, 0, 1050, 0x24, 0x1f000000000, 0x48a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 2072, 603, 0, Index{20, 1200, 2150, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 2110, 558, 0, Index{19, 2100, 3050, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 2070, 536, 0, Index{18, 3050, 3650, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 2105, 628, 0, Index{18, 3950, 4650, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 1963, 591, 0, Index{17, 4650, 5300, 0x24, 0x17000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 398, 346, 0, Index{13, 5400, 5950, 0x24, 0x1f000000000, 0x68a}, true},
	},
	"cap2k+archives": {
		{"a0-000001-000002.seg", 0, 1, 2, 4159, 465, 1, Index{38, 0, 1100, 0x54, 0x1f000000000, 0x68a}, true},
		{"a0-000003-000004.seg", 0, 3, 4, 4226, 460, 1, Index{36, 1150, 2500, 0x54, 0x1f000000000, 0x68a}, true},
		{"a0-000005-000006.seg", 0, 5, 6, 4196, 449, 1, Index{38, 2400, 3550, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 2106, 616, 0, Index{19, 3450, 4050, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 2148, 629, 0, Index{19, 4050, 4650, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 2110, 584, 0, Index{19, 4700, 5300, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 126, 138, 0, Index{1, 5350, 5350, 0x10, 0x10000000000, 0x80}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 437, 365, 0, Index{15, 5400, 5950, 0x54, 0x1f000000000, 0x48a}, true},
		{"a1-000001-000002.seg", 1, 1, 2, 4158, 436, 1, Index{38, 0, 1150, 0x2a, 0x1f000000000, 0x68a}, true},
		{"a1-000003-000004.seg", 1, 3, 4, 4159, 442, 1, Index{36, 1050, 2000, 0x2a, 0x1f000000000, 0x68a}, true},
		{"a1-000005-000006.seg", 1, 5, 6, 4145, 446, 1, Index{38, 2000, 3050, 0x2a, 0x1f000000000, 0x68a}, true},
		{"a1-000007-000008.seg", 1, 7, 8, 4190, 448, 1, Index{37, 3000, 4200, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 2131, 539, 0, Index{21, 4200, 4850, 0x2a, 0x1f000000000, 0x60a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 2095, 578, 0, Index{19, 4800, 5350, 0x2a, 0x1e000000000, 0x68a}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 89, 107, 0, Index{1, 5300, 5300, 0x20, 0x4000000000, 0x200}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 2133, 657, 0, Index{19, 5400, 5950, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000013-000013.seg", 1, 13, 13, 178, 196, 0, Index{6, 5850, 5950, 0x2a, 0x1b000000000, 0x288}, true},
	},
	"torn+flipped": {
		{"s0-000001-000001.seg", 0, 1, 1, 3855, 81, 0, Index{0, 0, 0, 0x0, 0x0, 0x0}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 1147, 626, 0, Index{59, 2400, 2806, 0x3f, 0x1f000000000, 0x1e}, true},
	},
}

// TestOpenAdoptsUnchanged: Open over the checked-in stores — sealed,
// with unsealed tails, with archives — and over a torn segment beside a
// stream-flipped sealed one reports, segment for segment, the index,
// sizes, seal and tier it reported before (openedSegments).
func TestOpenAdoptsUnchanged(t *testing.T) {
	for _, c := range []struct {
		name string
		be   func(t *testing.T) *MemBackend
	}{
		{"cap1k", func(t *testing.T) *MemBackend { return loadFixture(t, "v3", "cap1k") }},
		{"cap1k+tail", func(t *testing.T) *MemBackend { return loadFixture(t, "v3", "cap1k+tail") }},
		{"cap2k", func(t *testing.T) *MemBackend { return loadFixture(t, "v3", "cap2k") }},
		{"cap2k+tail", func(t *testing.T) *MemBackend { return loadFixture(t, "v3", "cap2k+tail") }},
		{"cap2k+archives", func(t *testing.T) *MemBackend { return loadFixture(t, "v3", "cap2k+archives") }},
		{"torn+flipped", tornAndFlipped},
	} {
		st, err := Open(c.be(t), Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, want := st.Segments(), openedSegments[c.name]
		if len(got) != len(want) {
			t.Fatalf("%s: %d segments after Open, want %d", c.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: segment %d is\n%+v, want\n%+v", c.name, i, got[i], want[i])
			}
		}
	}
}

// TestOpenCountsSalvageLoss: a sealed segment with one stream byte
// flipped salvages nothing, and Open counts every record its tail
// counted as lost (store.salvage_lost_records); the torn segment beside
// it, which has no tail, adds nothing.
func TestOpenCountsSalvageLoss(t *testing.T) {
	be := tornAndFlipped(t)
	data, err := be.Read(segName(0, 1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	flipped := newReaderSegment(segName(0, 1, 1, 0), 0, 1, 1, 0, data)
	if !flipped.Sealed || flipped.Index.Count == 0 {
		t.Fatalf("fixture: flipped segment sealed %v with %d records, want a sealed tail counting some", flipped.Sealed, flipped.Index.Count)
	}
	reg := obs.NewRegistry()
	if _, err := Open(be, Config{Shards: 1, CompactMin: 1 << 20, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter("store.salvage_lost_records").Load(), int64(flipped.Index.Count); got != want {
		t.Fatalf("store.salvage_lost_records = %d, want the flipped segment's tail count %d", got, want)
	}
	if got := reg.Counter("store.recovered").Load(); got != 2 {
		t.Fatalf("store.recovered = %d, want both segments", got)
	}
}

// TestOpenCountsFailedRemove: a superseded generation Open cannot remove
// is counted (store.maintain_errors), as a rewrite counts an input that
// will not go, and not dropped; Open succeeds, and every record reads
// once — the leftover hides behind the merged segment that covers it.
func TestOpenCountsFailedRemove(t *testing.T) {
	mem := NewMemBackend()
	want := tinySegments(t, mem, 6)
	sort.Strings(want)
	st, err := Open(&hookBackend{Backend: mem, failRemove: true}, Config{Shards: 1, CompactMin: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if names := segmentNames(t, mem); len(names) != 7 {
		t.Fatalf("fixture holds %v, want a run of 6 and the segment merged from it", names)
	}
	reg := obs.NewRegistry()
	if _, err := Open(&stuckBackend{Backend: mem, refuse: 1}, Config{Shards: 1, CompactMin: 1 << 20, Obs: reg}); err != nil {
		t.Fatalf("Open with one Remove refused: %v", err)
	}
	if got := reg.Counter("store.maintain_errors").Load(); got != 1 {
		t.Fatalf("store.maintain_errors = %d, want 1", got)
	}
	if names := segmentNames(t, mem); len(names) != 2 {
		t.Fatalf("files %v, want the merged segment and the one input that stuck", names)
	}
	if got := snapshotLines(t, mem); !reflect.DeepEqual(got, want) {
		t.Fatalf("records after Open:\n got %q\nwant %q", got, want)
	}
}
