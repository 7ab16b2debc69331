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
		{"s0-000001-000001.seg", 0, 1, 1, 1088, 581, 0, Index{9, 50, 350, 0x48, 0x1f000000000, 0x48a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 1034, 500, 0, Index{8, 300, 550, 0x48, 0x19000000000, 0x8a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 1034, 377, 0, Index{9, 650, 1000, 0x48, 0x1b000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 1056, 410, 0, Index{9, 1050, 1400, 0x48, 0x1b000000000, 0x682}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 1036, 520, 0, Index{9, 1350, 1650, 0x48, 0x1f000000000, 0x60a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 1044, 468, 0, Index{9, 1750, 2000, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1117, 660, 0, Index{10, 1950, 2500, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 1116, 583, 0, Index{9, 2450, 2700, 0x48, 0x1b000000000, 0x48a}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 1126, 561, 0, Index{10, 2850, 3150, 0x48, 0x1f000000000, 0x682}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 1085, 478, 0, Index{10, 3150, 3750, 0x48, 0x7000000000, 0x688}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 1055, 460, 0, Index{10, 3900, 4300, 0x48, 0x1d000000000, 0x682}, true},
		{"s0-000012-000012.seg", 0, 12, 12, 1139, 596, 0, Index{10, 4450, 4800, 0x48, 0x1f000000000, 0x682}, true},
		{"s0-000013-000013.seg", 0, 13, 13, 1064, 490, 0, Index{11, 4900, 5350, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000014-000014.seg", 0, 14, 14, 1092, 531, 0, Index{9, 5350, 5700, 0x48, 0x17000000000, 0x48a}, true},
		{"s0-000015-000015.seg", 0, 15, 15, 126, 138, 0, Index{1, 5950, 5950, 0x8, 0x8000000000, 0x80}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 1053, 426, 0, Index{9, 0, 400, 0x12, 0x7000000000, 0x60a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 1082, 409, 0, Index{10, 400, 850, 0x12, 0x1f000000000, 0x682}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 1142, 535, 0, Index{10, 1000, 1450, 0x12, 0x1f000000000, 0x28a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 1069, 469, 0, Index{10, 1550, 1850, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 1126, 531, 0, Index{10, 1850, 2200, 0x12, 0xf000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 1029, 390, 0, Index{9, 2300, 2650, 0x12, 0x1f000000000, 0x40a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1139, 483, 0, Index{10, 2600, 3100, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 1057, 498, 0, Index{9, 3150, 3750, 0x12, 0x1f000000000, 0x28a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 1038, 409, 0, Index{10, 3750, 4250, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 1060, 504, 0, Index{10, 4200, 4650, 0x12, 0xf000000000, 0x68a}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 1090, 411, 0, Index{9, 4650, 5100, 0x12, 0x1b000000000, 0x68a}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 1067, 520, 0, Index{9, 5300, 5650, 0x12, 0x1b000000000, 0x682}, true},
		{"s1-000013-000013.seg", 1, 13, 13, 914, 482, 0, Index{8, 5700, 5950, 0x12, 0x1b000000000, 0x68a}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 1057, 549, 0, Index{10, 0, 550, 0x24, 0x1b000000000, 0x60a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 1078, 381, 0, Index{9, 500, 850, 0x24, 0x1d000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 1139, 657, 0, Index{10, 750, 1100, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 1049, 362, 0, Index{9, 1200, 1850, 0x24, 0x17000000000, 0x28a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 1087, 437, 0, Index{10, 1950, 2500, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 1125, 481, 0, Index{9, 2400, 2950, 0x24, 0x16000000000, 0x28a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 1111, 353, 0, Index{10, 2950, 3300, 0x24, 0x1a000000000, 0x60a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 1047, 383, 0, Index{10, 3300, 3550, 0x24, 0x1b000000000, 0x48a}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 1079, 522, 0, Index{9, 3600, 3850, 0x24, 0x1f000000000, 0x688}, true},
		{"s2-000010-000010.seg", 2, 10, 10, 1060, 317, 0, Index{9, 3750, 4150, 0x24, 0x1b000000000, 0x60a}, true},
		{"s2-000011-000011.seg", 2, 11, 11, 1145, 372, 0, Index{10, 4150, 4450, 0x24, 0x17000000000, 0x68a}, true},
		{"s2-000012-000012.seg", 2, 12, 12, 1105, 357, 0, Index{10, 4500, 4900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000013-000013.seg", 2, 13, 13, 1131, 409, 0, Index{9, 4800, 5200, 0x24, 0x1f000000000, 0x48a}, true},
		{"s2-000014-000014.seg", 2, 14, 14, 1125, 592, 0, Index{9, 5100, 5500, 0x24, 0x1d000000000, 0x28a}, true},
		{"s2-000015-000015.seg", 2, 15, 15, 1138, 385, 0, Index{10, 5550, 5950, 0x24, 0x17000000000, 0x68a}, true},
		{"s2-000016-000016.seg", 2, 16, 16, 138, 254, 0, Index{1, 5850, 5850, 0x20, 0x1000000000, 0x8}, true},
	},
	"cap1k+tail": {
		{"s0-000001-000001.seg", 0, 1, 1, 1088, 462, 0, Index{10, 0, 400, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 1045, 466, 0, Index{9, 550, 850, 0x48, 0x1f000000000, 0x20a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 1034, 416, 0, Index{9, 900, 1300, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 1060, 360, 0, Index{9, 1450, 1900, 0x48, 0xe000000000, 0x48a}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 1136, 589, 0, Index{12, 1900, 2500, 0x48, 0x1f000000000, 0x602}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 1052, 365, 0, Index{9, 2400, 2650, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1053, 501, 0, Index{9, 2800, 3250, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 1110, 478, 0, Index{11, 3150, 3700, 0x48, 0x1d000000000, 0x682}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 1078, 472, 0, Index{9, 3600, 4000, 0x48, 0x17000000000, 0x288}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 1137, 490, 0, Index{10, 3950, 4450, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 1038, 603, 0, Index{9, 4350, 4900, 0x48, 0x1e000000000, 0x682}, true},
		{"s0-000012-000012.seg", 0, 12, 12, 1062, 536, 0, Index{9, 4800, 5200, 0x48, 0x1b000000000, 0x48a}, true},
		{"s0-000013-000013.seg", 0, 13, 13, 480, 259, 0, Index{4, 5250, 5350, 0x40, 0x15000000000, 0x482}, true},
		{"s0-000014-000014.seg", 0, 14, 14, 1139, 407, 0, Index{10, 5400, 5900, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000015-000015.seg", 0, 15, 15, 101, 149, 0, Index{3, 5850, 5950, 0x8, 0x9000000000, 0x600}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 1050, 355, 0, Index{10, 50, 450, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 1144, 477, 0, Index{10, 450, 800, 0x12, 0x1e000000000, 0x68a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 1136, 498, 0, Index{10, 800, 1150, 0x12, 0x17000000000, 0x68a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 1059, 295, 0, Index{9, 1100, 1400, 0x12, 0x17000000000, 0x40a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 1143, 373, 0, Index{10, 1500, 1750, 0x12, 0x1e000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 1046, 463, 0, Index{9, 1850, 2300, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1044, 360, 0, Index{9, 2300, 2800, 0x12, 0x1d000000000, 0x48a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 1119, 549, 0, Index{10, 2750, 3350, 0x12, 0x1d000000000, 0x68a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 1141, 355, 0, Index{9, 3300, 3700, 0x12, 0xf000000000, 0x28a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 1066, 541, 0, Index{10, 3600, 4100, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 1062, 368, 0, Index{10, 4050, 4550, 0x12, 0x1f000000000, 0x682}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 1047, 365, 0, Index{9, 4550, 4850, 0x12, 0x1d000000000, 0x28a}, true},
		{"s1-000013-000013.seg", 1, 13, 13, 1146, 566, 0, Index{10, 4800, 5300, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000014-000014.seg", 1, 14, 14, 215, 163, 0, Index{2, 5300, 5350, 0x10, 0x10000000000, 0x280}, true},
		{"s1-000015-000015.seg", 1, 15, 15, 1042, 372, 0, Index{9, 5450, 5700, 0x12, 0x1f000000000, 0x48a}, true},
		{"s1-000016-000016.seg", 1, 16, 16, 134, 182, 0, Index{3, 5800, 5900, 0x12, 0x1c000000000, 0x8a}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 1050, 312, 0, Index{9, 0, 350, 0x24, 0x17000000000, 0x40a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 1097, 569, 0, Index{10, 300, 1050, 0x24, 0xf000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 1098, 515, 0, Index{10, 1100, 1450, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 1110, 628, 0, Index{10, 1350, 1900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 1148, 612, 0, Index{11, 1850, 2300, 0x24, 0x1e000000000, 0x682}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 1042, 401, 0, Index{9, 2250, 2800, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 1049, 544, 0, Index{9, 2750, 3050, 0x24, 0xf000000000, 0x68a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 1083, 434, 0, Index{11, 3100, 3550, 0x24, 0xf000000000, 0x682}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 1108, 571, 0, Index{9, 3550, 4150, 0x24, 0x1d000000000, 0x28a}, true},
		{"s2-000010-000010.seg", 2, 10, 10, 1074, 474, 0, Index{10, 4200, 4600, 0x24, 0x7000000000, 0x60a}, true},
		{"s2-000011-000011.seg", 2, 11, 11, 1141, 503, 0, Index{11, 4650, 5200, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000012-000012.seg", 2, 12, 12, 575, 345, 0, Index{5, 5200, 5300, 0x24, 0x17000000000, 0x48a}, true},
		{"s2-000013-000013.seg", 2, 13, 13, 1145, 471, 0, Index{10, 5400, 5800, 0x24, 0x1f000000000, 0x60a}, true},
		{"s2-000014-000014.seg", 2, 14, 14, 147, 175, 0, Index{5, 5850, 5950, 0x24, 0x1c000000000, 0x60a}, true},
	},
	"cap2k": {
		{"s0-000001-000001.seg", 0, 1, 1, 2177, 889, 0, Index{19, 0, 1150, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 2179, 920, 0, Index{19, 1050, 1800, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 2135, 866, 0, Index{19, 1850, 2750, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 2068, 923, 0, Index{18, 2750, 3550, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 2133, 769, 0, Index{18, 3800, 4750, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 2168, 842, 0, Index{20, 4650, 5550, 0x48, 0x15000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1167, 631, 0, Index{10, 5550, 5950, 0x48, 0x1f000000000, 0x68a}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 2176, 723, 0, Index{19, 50, 1150, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 2108, 679, 0, Index{20, 1050, 1950, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 2094, 859, 0, Index{18, 2000, 2900, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 2089, 723, 0, Index{17, 2900, 3750, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 2073, 896, 0, Index{20, 3800, 4600, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 2107, 822, 0, Index{18, 4550, 5500, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1579, 650, 0, Index{14, 5400, 5900, 0x12, 0x1f000000000, 0x68a}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 2120, 975, 0, Index{19, 0, 700, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 2055, 676, 0, Index{19, 600, 1200, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 2094, 633, 0, Index{19, 1250, 2200, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 2142, 668, 0, Index{19, 2100, 2950, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 2132, 593, 0, Index{17, 2850, 3550, 0x24, 0x1f000000000, 0x28a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 2135, 692, 0, Index{19, 3500, 4250, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 2082, 735, 0, Index{18, 4200, 4900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 2144, 843, 0, Index{19, 4900, 5900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 164, 194, 0, Index{2, 5900, 5950, 0x4, 0x9000000000, 0x480}, true},
	},
	"cap2k+tail": {
		{"s0-000001-000001.seg", 0, 1, 1, 2120, 774, 0, Index{19, 0, 800, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 2063, 867, 0, Index{20, 750, 1750, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 2128, 815, 0, Index{18, 1800, 2700, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 2087, 865, 0, Index{18, 2700, 3700, 0x48, 0x1b000000000, 0x68a}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 2126, 979, 0, Index{20, 3650, 4200, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 1777, 747, 0, Index{17, 4350, 5350, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 527, 495, 0, Index{11, 5400, 5950, 0x48, 0x1f000000000, 0x68a}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 2065, 745, 0, Index{19, 50, 800, 0x12, 0x1f000000000, 0x60a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 2147, 837, 0, Index{18, 850, 1750, 0x12, 0x1f000000000, 0x28a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 2177, 834, 0, Index{20, 1700, 2650, 0x12, 0x1f000000000, 0x688}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 2137, 902, 0, Index{20, 2550, 3350, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 2067, 789, 0, Index{18, 3350, 4100, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 2086, 778, 0, Index{19, 4250, 4900, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1237, 662, 0, Index{11, 4800, 5350, 0x12, 0x1b000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 650, 568, 0, Index{16, 5400, 5950, 0x12, 0x1f000000000, 0x68a}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 2087, 655, 0, Index{18, 0, 850, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 2076, 786, 0, Index{19, 850, 1500, 0x24, 0xf000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 2096, 1015, 0, Index{19, 1500, 2300, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 2127, 980, 0, Index{20, 2250, 3350, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 2186, 950, 0, Index{18, 3350, 4250, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 2061, 703, 0, Index{18, 4250, 5000, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 1357, 683, 0, Index{11, 4950, 5300, 0x24, 0x1f000000000, 0x28a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 365, 313, 0, Index{13, 5400, 5950, 0x24, 0xf000000000, 0x60a}, true},
	},
	"cap2k+archives": {
		{"a0-000001-000002.seg", 0, 1, 2, 4212, 637, 1, Index{37, 0, 1000, 0x54, 0x1f000000000, 0x68a}, true},
		{"a0-000003-000005.seg", 0, 3, 5, 6429, 964, 1, Index{56, 900, 2650, 0x54, 0x1f000000000, 0x68a}, true},
		{"a0-000006-000007.seg", 0, 6, 7, 4288, 742, 1, Index{38, 2550, 3550, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 2086, 782, 0, Index{20, 3450, 4200, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 2053, 686, 0, Index{18, 4200, 4850, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 2123, 735, 0, Index{19, 4800, 5350, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 91, 106, 0, Index{1, 5300, 5300, 0x4, 0x8000000000, 0x400}, true},
		{"s0-000012-000012.seg", 0, 12, 12, 2061, 751, 0, Index{18, 5450, 5800, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000013-000013.seg", 0, 13, 13, 56, 114, 0, Index{2, 5900, 5900, 0x50, 0xc000000000, 0x600}, true},
		{"a1-000001-000002.seg", 1, 1, 2, 4180, 753, 1, Index{39, 0, 1450, 0x2a, 0x1f000000000, 0x68a}, true},
		{"a1-000003-000004.seg", 1, 3, 4, 4243, 662, 1, Index{36, 1350, 2350, 0x2a, 0x1f000000000, 0x68a}, true},
		{"a1-000005-000006.seg", 1, 5, 6, 4146, 711, 1, Index{37, 2350, 3700, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 2116, 735, 0, Index{19, 3750, 4150, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 2102, 874, 0, Index{19, 4200, 4750, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 2131, 805, 0, Index{20, 4650, 5350, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 89, 107, 0, Index{1, 5250, 5250, 0x20, 0x10000000000, 0x200}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 2168, 900, 0, Index{18, 5400, 5950, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 87, 145, 0, Index{2, 5850, 5900, 0x22, 0x9000000000, 0x480}, true},
	},
	"torn+flipped": {
		{"s0-000001-000001.seg", 0, 1, 1, 9265, 81, 0, Index{0, 0, 0, 0x0, 0x0, 0x0}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 2882, 2335, 0, Index{59, 2400, 2806, 0x3f, 0x1f000000000, 0x1e}, true},
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
