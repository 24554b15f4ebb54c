package campaign

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestCampaignGolden pins what four rounds of three campaigns evolve: the
// coverage digest, the corpus digest, the coverage size and the step
// total, and the checkpoint bytes. Coverage digests hash the exploration memo key, whose last part
// is the online checker's Key, so a drift in any of its bytes — or in the
// runs themselves — re-keys every stored checkpoint and fails here.
func TestCampaignGolden(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{
			spec: Spec{Alg: "group-update", Object: "fetch-increment", N: 3, BatchSize: 16, MaxCorpus: 8, Seed: 11},
			want: "coverage=eccbd8502cf9f81c corpus=4309e00045e7e1f3c88073793b563e2da37e15a1f5d435b95591294d3954a555 digests=2203 steps=2516 checkpoint=3b85adc4e0eb4bfae803abe77e44ed4c93cdea8730388056ba81f38c39b13bbd",
		},
		{
			spec: Spec{Alg: "tas-tournament", Object: "tas", N: 3, BatchSize: 16, MaxCorpus: 8, Seed: 12},
			want: "coverage=4795c26aa3f7895d corpus=99405871c7990c6ff89db399ad70604ff62ba8d2e91bfc785a1b99b02439aa99 digests=675 steps=1409 checkpoint=1a2dc653ddf51e7518e821dd272db3cc8c26f0ddb3a6a4fd0f06859fb0abb822",
		},
		{
			spec: Spec{Alg: "herlihy", Object: "queue", N: 3, BatchSize: 16, MaxCorpus: 8, Seed: 13},
			want: "coverage=74df8bb6a54a9c46 corpus=3b88696059fa7299eb653fde8301f69d1f7cbf8e425199f7695c57cd474d53e3 digests=1417 steps=1676 checkpoint=b48e6c64153fe2e8f5447dbcf9118e5cf423785c3dea32cd452ed978f823e0a8",
		},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Alg+"/"+tc.spec.Object, func(t *testing.T) {
			st := runRounds(t, &tc.spec, 4, 1)
			checkpoint, err := st.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("coverage=%016x corpus=%s digests=%d steps=%d checkpoint=%x",
				st.coverage().Digest(), st.Corpus.Digest(), len(st.Coverage), st.TotalSteps, sha256.Sum256(checkpoint))
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}
