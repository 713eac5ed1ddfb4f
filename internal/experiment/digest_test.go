package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// artifactDigests holds the sha256 of Render() for every Registry entry at
// Config{Runs: 3, Workers: 2} and two seeds. Any change to a seed label, a
// condition list, a training stream or a renderer shows here as a digest
// mismatch, so refactors of the harness are byte-identity checked on all 25
// artifacts, not only the ones the benchmark module pins.
var artifactDigests = []struct {
	id               string
	seed2005, seed99 string
}{
	{"table1", "15ccde294bbeb6fcc8933ceb9e1903ec2b940221618ebd5cd5b6cfbd977f34b1",
		"4fccd8a1ef52cdeecfae20a91b4aca6d91077cdd708e1323fa0e42fcd5d2efb9"},
	{"table2", "f74169fef3a73600c04cb831936b1b02adc3f6b0d77be6668f578eb15ab64187",
		"663372847ffc274c3b0a2ded156a23e1efb23e1bf649f18d543511ba20e45c1b"},
	{"fig5", "0f98bd56b964d692a7a23dbd856c4347b747931de30ac30329c0ca2133765783",
		"7b56a795fd90c31cc9bb15d1f93cfa94a1d684b150efdfd5dd08d0f0155b3c29"},
	{"fig6", "de8b4d9369e41c3428efd7742f66e87baddfb7d553350d1f2f52ea2fd326ed11",
		"f3a903a6a15a734db2221e1911401a462a1dd2e87cf4bc7726b821a45c39a4ca"},
	{"fig7", "f09d17537a5fd50e3cb2a71c7c005922eb1ab3a0c73b8778b9305651fb04ece9",
		"07ad2870e537a46ece1ecfe65e3cb88bf499fb746c26961f6dbb4f7cdb5f13e5"},
	{"fig8", "8e8b8d3eaaaaa71bf88e3ce2625daf3c5681b1e63c94e52aef42d9719aca5549",
		"2da41c8474123c30319f41b804bfbd3e61f4546f0a51de6d60c71eb9e4e619d1"},
	{"fig9", "c17c46d4de4ae3fea10104c712c6b4c50849db4d45e99bda2c9b1db72d1da80f",
		"aca49b96012b9039ae4eca06a986affe5e727300148e59476bc2a02d49ca6239"},
	{"fig10", "6bcd0d0e102ce16836a78a648706e8f589c32cc6bf9cb335d47136d3bf1a729e",
		"aa0cb56ef1731063fdeeee4f5b9d57c2cdb0093ff79ad5519cd0517fbc686006"},
	{"fig11", "dc9a43b8150dbb145cb4985b1bb53a61273f04b955c48589e1275890ed1e792d",
		"c4acc907202ca528a94e2059c92e97de7ddb25cd2c9dfffb5667a08823ae1eef"},
	{"fig12", "d9f8d77a6ab7cc3348eaf3dd32419cf43c20610554c2a0520cd7f29c014ef32a",
		"5d80b2bd34d924740988ce109f770253e1aeb72fc61c3ec8dc9b4ecdc30bb093"},
	{"fig13", "fd67e526bae41ab04b5f7e064ab197d78679c1b7d0258ce9966c6f8eed27a648",
		"930d0a2dd085f5e66705d47a913a418b6f85c8c4b670269267e7eaf25f279283"},
	{"fig14", "6474eed561dddd2a02f5ada00159198b57bde2576f4418aff34539eddc8acb24",
		"6474eed561dddd2a02f5ada00159198b57bde2576f4418aff34539eddc8acb24"},
	{"fig15", "d4d91c8fa755a74afb6a84935ffc04103f6405d3a5220fb0029d393d8f90e278",
		"242820e261cd11cf61d9a79f4ec50ebb5c0dc094bf23d1500425d5b8e041c134"},
	{"detection", "1be1e8bbc18bed448b811081231a4addb6a5e27299cf18a44de64634d39fcd86",
		"e0aa2b13ca1dddf11931a896cb6ce831641b2458e59dbb33979774de0087e034"},
	{"leash", "e554e716db05257f5ae5ee7346a84b2de6e8b1d7bafe16d6d5040e265b6d65cf",
		"46659ca6c34613ce2cb6815a6edb8bae76dbfa70529a88962407ce5d1e78d70c"},
	{"protocols", "05d2c6fb097e9efdfceb051fa3da5b5767f23a7dd4330e0c8b0e1b0602fc1fec",
		"db294b71cb8d2e8ba1e59af038aef2a38c365c531435078526b02d5a7a15ffba"},
	{"rushing", "4f798208c55024638641f3ac6648e83172d932cd60ec2cdf7c03653a480fa068",
		"ddce8fad94466bccfb2a9e08c7be0223222db4c5fbd71481d5bce87b0d3a3732"},
	{"loss", "9553d26bc0303ab9836b1bebbdee53dc4247bb6ac52c45e9a218002e4af85010",
		"1d7783830a6d74362ad82af0349bb14826463902ce5b44e3ccc5c55c2ac0a40c"},
	{"mobility", "bf75516c1fa4ef08c3352ad53522496099e57419e757e328c6079cf59ac79115",
		"59b327cbd91b1c40763aa4c8e0869d13962d17d2e0428d8165c2c49ff81ae942"},
	{"blackhole", "0bcd1fe33c6de28426e5de10eee2b4b2e68abd7b5c33a219ef1bcdc79f612d7d",
		"0bcd1fe33c6de28426e5de10eee2b4b2e68abd7b5c33a219ef1bcdc79f612d7d"},
	{"adaptive", "cba338aab076d6bdcf60fc1f2a9f7c9f21a9a198b3293051842800473e29ed98",
		"ba3d17da0bd89a55dda45908edc8fb5704db6ddae4f0e5a027fe4ccd7efea043"},
	{"roc", "a0a740e0ba6208f4f9c9e37d1c57d7bf9c63944881958055d26b86fa0d07a56b",
		"f8baf8eb88c768ba39e39134408ee0b0f5e17d35e6580985d3192e598fee77cc"},
	{"pdr", "45e88b346217f68fc9c8fb2ff508bad073190bf233f61ca54808e6bf9a0e23c5",
		"45e88b346217f68fc9c8fb2ff508bad073190bf233f61ca54808e6bf9a0e23c5"},
	{"verifyloop", "cb7bf187b9686d5e8d74db17eb6e67200ac7d6d8376ef4c2b26c1ff9fc539101",
		"6eb6c0f8b401d8210266d23267336933f4e687eb5d943bea06ad6be534578c06"},
	{"rocmatrix", "400b862c89badb91caee40b8a665d34cf8d6dc1de628750327fcc5e1570be524",
		"c40beb2baa82dc51a4813c5fd89962a1482fecfaf4fe6ee9a18c4964706a7957"},
}

func TestArtifactDigests(t *testing.T) {
	if len(artifactDigests) != len(Registry) {
		t.Fatalf("%d pinned digests for %d registry entries", len(artifactDigests), len(Registry))
	}
	for i, want := range artifactDigests {
		d := Registry[i]
		if d.ID != want.id {
			t.Fatalf("registry entry %d is %q, pinned %q", i, d.ID, want.id)
		}
		t.Run(d.ID, func(t *testing.T) {
			t.Parallel()
			for _, c := range []struct {
				seed uint64
				want string
			}{{2005, want.seed2005}, {99, want.seed99}} {
				sum := sha256.Sum256([]byte(d.Run(Config{Runs: 3, Seed: c.seed, Workers: 2}).Render()))
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Errorf("seed %d: sha256 %s, pinned %s", c.seed, got, c.want)
				}
			}
		})
	}
}
