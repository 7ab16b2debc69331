package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dpm/internal/obs"
)

// loadFixture copies one layout of a checked-in store (testdata/v1 or
// testdata/v2; see each MANIFEST) into a memory backend.
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
// leave: a sealed segment with a byte flipped inside its second block,
// and a segment never sealed, cut inside its last flush.
func tornAndFlipped(t *testing.T) *MemBackend {
	t.Helper()
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1, BlockTarget: 1024, CompactMin: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendSealed(t, st, 0, 200)
	for i := 200; i < 260; i++ {
		m, line := compRec(i)
		if err := st.Append(m, line); err != nil {
			t.Fatal(err)
		}
	}
	sealed, torn := segName(0, 1, 1, 0), segName(0, 2, 2, 0)
	data, err := be.Read(sealed)
	if err != nil {
		t.Fatal(err)
	}
	blocks := newReaderSegment(sealed, 0, 1, 1, 0, data).Blocks()
	if len(blocks) < 3 {
		t.Fatalf("%s has %d blocks, want several", sealed, len(blocks))
	}
	data = append([]byte(nil), data...)
	data[headerV2Size+blocks[1].Off+blocks[1].CompLen/2] ^= 0x40
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

// openedSegments is Store.Segments() after Open over each store, as the
// store reported it while Open still decoded every file into records
// (ParseSegment) and recovered through an encoder of its own: what
// adopting, recovering and sizing a segment through ScanViews must not
// change.
var openedSegments = map[string][]SegmentInfo{
	"v1": {
		{"s0-000001-000001.seg", 0, 1, 1, 1088, 1144, 0, Index{9, 50, 350, 0x48, 0x1f000000000, 0x48a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 1034, 1090, 0, Index{8, 300, 550, 0x48, 0x19000000000, 0x8a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 1034, 1090, 0, Index{9, 650, 1000, 0x48, 0x1b000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 1056, 1112, 0, Index{9, 1050, 1400, 0x48, 0x1b000000000, 0x682}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 1036, 1092, 0, Index{9, 1350, 1650, 0x48, 0x1f000000000, 0x60a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 1044, 1100, 0, Index{9, 1750, 2000, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1117, 1173, 0, Index{10, 1950, 2500, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 1116, 1172, 0, Index{9, 2450, 2700, 0x48, 0x1b000000000, 0x48a}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 1126, 1182, 0, Index{10, 2850, 3150, 0x48, 0x1f000000000, 0x682}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 1085, 1141, 0, Index{10, 3150, 3750, 0x48, 0x7000000000, 0x688}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 1055, 1111, 0, Index{10, 3900, 4300, 0x48, 0x1d000000000, 0x682}, true},
		{"s0-000012-000012.seg", 0, 12, 12, 1139, 1195, 0, Index{10, 4450, 4800, 0x48, 0x1f000000000, 0x682}, true},
		{"s0-000013-000013.seg", 0, 13, 13, 1064, 1120, 0, Index{11, 4900, 5350, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000014-000014.seg", 0, 14, 14, 1092, 1148, 0, Index{9, 5350, 5700, 0x48, 0x17000000000, 0x48a}, true},
		{"s0-000015-000015.seg", 0, 15, 15, 126, 182, 0, Index{1, 5950, 5950, 0x8, 0x8000000000, 0x80}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 1053, 1109, 0, Index{9, 0, 400, 0x12, 0x7000000000, 0x60a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 1082, 1138, 0, Index{10, 400, 850, 0x12, 0x1f000000000, 0x682}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 1142, 1198, 0, Index{10, 1000, 1450, 0x12, 0x1f000000000, 0x28a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 1069, 1125, 0, Index{10, 1550, 1850, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 1126, 1182, 0, Index{10, 1850, 2200, 0x12, 0xf000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 1029, 1085, 0, Index{9, 2300, 2650, 0x12, 0x1f000000000, 0x40a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1139, 1195, 0, Index{10, 2600, 3100, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 1057, 1113, 0, Index{9, 3150, 3750, 0x12, 0x1f000000000, 0x28a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 1038, 1094, 0, Index{10, 3750, 4250, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 1060, 1116, 0, Index{10, 4200, 4650, 0x12, 0xf000000000, 0x68a}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 1090, 1146, 0, Index{9, 4650, 5100, 0x12, 0x1b000000000, 0x68a}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 1067, 1123, 0, Index{9, 5300, 5650, 0x12, 0x1b000000000, 0x682}, true},
		{"s1-000013-000013.seg", 1, 13, 13, 914, 970, 0, Index{8, 5700, 5950, 0x12, 0x1b000000000, 0x68a}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 1057, 1113, 0, Index{10, 0, 550, 0x24, 0x1b000000000, 0x60a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 1078, 1134, 0, Index{9, 500, 850, 0x24, 0x1d000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 1139, 1195, 0, Index{10, 750, 1100, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 1049, 1105, 0, Index{9, 1200, 1850, 0x24, 0x17000000000, 0x28a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 1087, 1143, 0, Index{10, 1950, 2500, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 1125, 1181, 0, Index{9, 2400, 2950, 0x24, 0x16000000000, 0x28a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 1111, 1167, 0, Index{10, 2950, 3300, 0x24, 0x1a000000000, 0x60a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 1047, 1103, 0, Index{10, 3300, 3550, 0x24, 0x1b000000000, 0x48a}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 1079, 1135, 0, Index{9, 3600, 3850, 0x24, 0x1f000000000, 0x688}, true},
		{"s2-000010-000010.seg", 2, 10, 10, 1060, 1116, 0, Index{9, 3750, 4150, 0x24, 0x1b000000000, 0x60a}, true},
		{"s2-000011-000011.seg", 2, 11, 11, 1145, 1201, 0, Index{10, 4150, 4450, 0x24, 0x17000000000, 0x68a}, true},
		{"s2-000012-000012.seg", 2, 12, 12, 1105, 1161, 0, Index{10, 4500, 4900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000013-000013.seg", 2, 13, 13, 1131, 1187, 0, Index{9, 4800, 5200, 0x24, 0x1f000000000, 0x48a}, true},
		{"s2-000014-000014.seg", 2, 14, 14, 1125, 1181, 0, Index{9, 5100, 5500, 0x24, 0x1d000000000, 0x28a}, true},
		{"s2-000015-000015.seg", 2, 15, 15, 1138, 1194, 0, Index{10, 5550, 5950, 0x24, 0x17000000000, 0x68a}, true},
		{"s2-000016-000016.seg", 2, 16, 16, 138, 194, 0, Index{1, 5850, 5850, 0x20, 0x1000000000, 0x8}, true},
	},
	"v1+tail": {
		{"s0-000001-000001.seg", 0, 1, 1, 1088, 1144, 0, Index{10, 0, 400, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 1045, 1101, 0, Index{9, 550, 850, 0x48, 0x1f000000000, 0x20a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 1034, 1090, 0, Index{9, 900, 1300, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 1060, 1116, 0, Index{9, 1450, 1900, 0x48, 0xe000000000, 0x48a}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 1136, 1192, 0, Index{12, 1900, 2500, 0x48, 0x1f000000000, 0x602}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 1052, 1108, 0, Index{9, 2400, 2650, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1053, 1109, 0, Index{9, 2800, 3250, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 1110, 1166, 0, Index{11, 3150, 3700, 0x48, 0x1d000000000, 0x682}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 1078, 1134, 0, Index{9, 3600, 4000, 0x48, 0x17000000000, 0x288}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 1137, 1193, 0, Index{10, 3950, 4450, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 1038, 1094, 0, Index{9, 4350, 4900, 0x48, 0x1e000000000, 0x682}, true},
		{"s0-000012-000012.seg", 0, 12, 12, 1062, 1118, 0, Index{9, 4800, 5200, 0x48, 0x1b000000000, 0x48a}, true},
		{"s0-000013-000013.seg", 0, 13, 13, 480, 536, 0, Index{4, 5250, 5350, 0x40, 0x15000000000, 0x482}, true},
		{"s0-000014-000014.seg", 0, 14, 14, 1139, 1195, 0, Index{10, 5400, 5900, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000015-000015.seg", 0, 15, 15, 218, 206, 0, Index{3, 5850, 5950, 0x8, 0x9000000000, 0x600}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 1050, 1106, 0, Index{10, 50, 450, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 1144, 1200, 0, Index{10, 450, 800, 0x12, 0x1e000000000, 0x68a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 1136, 1192, 0, Index{10, 800, 1150, 0x12, 0x17000000000, 0x68a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 1059, 1115, 0, Index{9, 1100, 1400, 0x12, 0x17000000000, 0x40a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 1143, 1199, 0, Index{10, 1500, 1750, 0x12, 0x1e000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 1046, 1102, 0, Index{9, 1850, 2300, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1044, 1100, 0, Index{9, 2300, 2800, 0x12, 0x1d000000000, 0x48a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 1119, 1175, 0, Index{10, 2750, 3350, 0x12, 0x1d000000000, 0x68a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 1141, 1197, 0, Index{9, 3300, 3700, 0x12, 0xf000000000, 0x28a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 1066, 1122, 0, Index{10, 3600, 4100, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 1062, 1118, 0, Index{10, 4050, 4550, 0x12, 0x1f000000000, 0x682}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 1047, 1103, 0, Index{9, 4550, 4850, 0x12, 0x1d000000000, 0x28a}, true},
		{"s1-000013-000013.seg", 1, 13, 13, 1146, 1202, 0, Index{10, 4800, 5300, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000014-000014.seg", 1, 14, 14, 215, 271, 0, Index{2, 5300, 5350, 0x10, 0x10000000000, 0x280}, true},
		{"s1-000015-000015.seg", 1, 15, 15, 1042, 1098, 0, Index{9, 5450, 5700, 0x12, 0x1f000000000, 0x48a}, true},
		{"s1-000016-000016.seg", 1, 16, 16, 393, 219, 0, Index{3, 5800, 5900, 0x12, 0x1c000000000, 0x8a}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 1050, 1106, 0, Index{9, 0, 350, 0x24, 0x17000000000, 0x40a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 1097, 1153, 0, Index{10, 300, 1050, 0x24, 0xf000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 1098, 1154, 0, Index{10, 1100, 1450, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 1110, 1166, 0, Index{10, 1350, 1900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 1148, 1204, 0, Index{11, 1850, 2300, 0x24, 0x1e000000000, 0x682}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 1042, 1098, 0, Index{9, 2250, 2800, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 1049, 1105, 0, Index{9, 2750, 3050, 0x24, 0xf000000000, 0x68a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 1083, 1139, 0, Index{11, 3100, 3550, 0x24, 0xf000000000, 0x682}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 1108, 1164, 0, Index{9, 3550, 4150, 0x24, 0x1d000000000, 0x28a}, true},
		{"s2-000010-000010.seg", 2, 10, 10, 1074, 1130, 0, Index{10, 4200, 4600, 0x24, 0x7000000000, 0x60a}, true},
		{"s2-000011-000011.seg", 2, 11, 11, 1141, 1197, 0, Index{11, 4650, 5200, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000012-000012.seg", 2, 12, 12, 575, 631, 0, Index{5, 5200, 5300, 0x24, 0x17000000000, 0x48a}, true},
		{"s2-000013-000013.seg", 2, 13, 13, 1145, 1201, 0, Index{10, 5400, 5800, 0x24, 0x1f000000000, 0x60a}, true},
		{"s2-000014-000014.seg", 2, 14, 14, 534, 212, 0, Index{5, 5850, 5950, 0x24, 0x1c000000000, 0x60a}, true},
	},
	"v2": {
		{"s0-000001-000001.seg", 0, 1, 1, 2177, 1943, 0, Index{19, 0, 1150, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 2179, 1925, 0, Index{19, 1050, 1800, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 2135, 1877, 0, Index{19, 1850, 2750, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 2068, 2001, 0, Index{18, 2750, 3550, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 2133, 1878, 0, Index{18, 3800, 4750, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 2168, 2062, 0, Index{20, 4650, 5550, 0x48, 0x15000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1167, 1296, 0, Index{10, 5550, 5950, 0x48, 0x1f000000000, 0x68a}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 2176, 1901, 0, Index{19, 50, 1150, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 2108, 1946, 0, Index{20, 1050, 1950, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 2094, 1953, 0, Index{18, 2000, 2900, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 2089, 1867, 0, Index{17, 2900, 3750, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 2073, 1989, 0, Index{20, 3800, 4600, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 2107, 1944, 0, Index{18, 4550, 5500, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1579, 1541, 0, Index{14, 5400, 5900, 0x12, 0x1f000000000, 0x68a}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 2120, 1984, 0, Index{19, 0, 700, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 2055, 1856, 0, Index{19, 600, 1200, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 2094, 1876, 0, Index{19, 1250, 2200, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 2142, 1911, 0, Index{19, 2100, 2950, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 2132, 1818, 0, Index{17, 2850, 3550, 0x24, 0x1f000000000, 0x28a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 2135, 1919, 0, Index{19, 3500, 4250, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 2082, 1955, 0, Index{18, 4200, 4900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 2144, 2150, 0, Index{19, 4900, 5900, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000009-000009.seg", 2, 9, 9, 164, 371, 0, Index{2, 5900, 5950, 0x4, 0x9000000000, 0x480}, true},
	},
	"v2+tail": {
		{"s0-000001-000001.seg", 0, 1, 1, 2120, 1898, 0, Index{19, 0, 800, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 2063, 1985, 0, Index{20, 750, 1750, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000003-000003.seg", 0, 3, 3, 2128, 1879, 0, Index{18, 1800, 2700, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000004-000004.seg", 0, 4, 4, 2087, 1920, 0, Index{18, 2700, 3700, 0x48, 0x1b000000000, 0x68a}, true},
		{"s0-000005-000005.seg", 0, 5, 5, 2126, 2006, 0, Index{20, 3650, 4200, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000006-000006.seg", 0, 6, 6, 1777, 1879, 0, Index{17, 4350, 5350, 0x48, 0x1f000000000, 0x68a}, true},
		{"s0-000007-000007.seg", 0, 7, 7, 1219, 699, 0, Index{11, 5400, 5950, 0x48, 0x1f000000000, 0x68a}, true},
		{"s1-000001-000001.seg", 1, 1, 1, 2065, 1787, 0, Index{19, 50, 800, 0x12, 0x1f000000000, 0x60a}, true},
		{"s1-000002-000002.seg", 1, 2, 2, 2147, 2055, 0, Index{18, 850, 1750, 0x12, 0x1f000000000, 0x28a}, true},
		{"s1-000003-000003.seg", 1, 3, 3, 2177, 1917, 0, Index{20, 1700, 2650, 0x12, 0x1f000000000, 0x688}, true},
		{"s1-000004-000004.seg", 1, 4, 4, 2137, 2096, 0, Index{20, 2550, 3350, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000005-000005.seg", 1, 5, 5, 2067, 1807, 0, Index{18, 3350, 4100, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000006-000006.seg", 1, 6, 6, 2086, 2006, 0, Index{19, 4250, 4900, 0x12, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 1237, 1423, 0, Index{11, 4800, 5350, 0x12, 0x1b000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 1929, 751, 0, Index{16, 5400, 5950, 0x12, 0x1f000000000, 0x68a}, true},
		{"s2-000001-000001.seg", 2, 1, 1, 2087, 1802, 0, Index{18, 0, 850, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000002-000002.seg", 2, 2, 2, 2076, 1997, 0, Index{19, 850, 1500, 0x24, 0xf000000000, 0x68a}, true},
		{"s2-000003-000003.seg", 2, 3, 3, 2096, 1856, 0, Index{19, 1500, 2300, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000004-000004.seg", 2, 4, 4, 2127, 2012, 0, Index{20, 2250, 3350, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000005-000005.seg", 2, 5, 5, 2186, 1974, 0, Index{18, 3350, 4250, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000006-000006.seg", 2, 6, 6, 2061, 1906, 0, Index{18, 4250, 5000, 0x24, 0x1f000000000, 0x68a}, true},
		{"s2-000007-000007.seg", 2, 7, 7, 1357, 1356, 0, Index{11, 4950, 5300, 0x24, 0x1f000000000, 0x28a}, true},
		{"s2-000008-000008.seg", 2, 8, 8, 1409, 372, 0, Index{13, 5400, 5950, 0x24, 0xf000000000, 0x60a}, true},
	},
	"v2+archives": {
		{"a0-000001-000002.seg", 0, 1, 2, 4212, 1617, 1, Index{37, 0, 1000, 0x54, 0x1f000000000, 0x68a}, true},
		{"a0-000003-000005.seg", 0, 3, 5, 6429, 2339, 1, Index{56, 900, 2650, 0x54, 0x1f000000000, 0x68a}, true},
		{"a0-000006-000007.seg", 0, 6, 7, 4288, 1745, 1, Index{38, 2550, 3550, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000008-000008.seg", 0, 8, 8, 2086, 1965, 0, Index{20, 3450, 4200, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000009-000009.seg", 0, 9, 9, 2053, 1860, 0, Index{18, 4200, 4850, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000010-000010.seg", 0, 10, 10, 2123, 1900, 0, Index{19, 4800, 5350, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000011-000011.seg", 0, 11, 11, 91, 302, 0, Index{1, 5300, 5300, 0x4, 0x8000000000, 0x400}, true},
		{"s0-000012-000012.seg", 0, 12, 12, 2061, 1825, 0, Index{18, 5450, 5800, 0x54, 0x1f000000000, 0x68a}, true},
		{"s0-000013-000013.seg", 0, 13, 13, 179, 151, 0, Index{2, 5900, 5900, 0x50, 0xc000000000, 0x600}, true},
		{"a1-000001-000002.seg", 1, 1, 2, 4180, 1723, 1, Index{39, 0, 1450, 0x2a, 0x1f000000000, 0x68a}, true},
		{"a1-000003-000004.seg", 1, 3, 4, 4243, 1654, 1, Index{36, 1350, 2350, 0x2a, 0x1f000000000, 0x68a}, true},
		{"a1-000005-000006.seg", 1, 5, 6, 4146, 1801, 1, Index{37, 2350, 3700, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000007-000007.seg", 1, 7, 7, 2116, 1907, 0, Index{19, 3750, 4150, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000008-000008.seg", 1, 8, 8, 2102, 2012, 0, Index{19, 4200, 4750, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000009-000009.seg", 1, 9, 9, 2131, 2004, 0, Index{20, 4650, 5350, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000010-000010.seg", 1, 10, 10, 89, 296, 0, Index{1, 5250, 5250, 0x20, 0x10000000000, 0x200}, true},
		{"s1-000011-000011.seg", 1, 11, 11, 2168, 1909, 0, Index{18, 5400, 5950, 0x2a, 0x1f000000000, 0x68a}, true},
		{"s1-000012-000012.seg", 1, 12, 12, 218, 182, 0, Index{2, 5850, 5900, 0x22, 0x9000000000, 0x480}, true},
	},
	"torn+flipped": {
		{"s0-000001-000001.seg", 0, 1, 1, 1101, 962, 0, Index{12, 1000, 1077, 0x3f, 0x1f000000000, 0x1e}, true},
		{"s0-000002-000002.seg", 0, 2, 2, 5410, 2842, 0, Index{59, 2400, 2806, 0x3f, 0x1f000000000, 0x1e}, true},
	},
}

// TestOpenAdoptsUnchanged: Open over the checked-in v1 and v2 stores —
// sealed, with unsealed tails, with archives — and over a torn segment
// beside a block-flipped sealed one reports, segment for segment, the
// index, sizes, seal and tier it reported before it read through
// ScanViews.
func TestOpenAdoptsUnchanged(t *testing.T) {
	for _, c := range []struct {
		name string
		be   func(t *testing.T) *MemBackend
	}{
		{"v1", func(t *testing.T) *MemBackend { return loadFixture(t, "v1", "v1") }},
		{"v1+tail", func(t *testing.T) *MemBackend { return loadFixture(t, "v1", "v1+tail") }},
		{"v2", func(t *testing.T) *MemBackend { return loadFixture(t, "v2", "v2") }},
		{"v2+tail", func(t *testing.T) *MemBackend { return loadFixture(t, "v2", "v2+tail") }},
		{"v2+archives", func(t *testing.T) *MemBackend { return loadFixture(t, "v2", "v2+archives") }},
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
