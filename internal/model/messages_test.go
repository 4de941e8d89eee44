package model

import "testing"

func TestMessageStringer(t *testing.T) {
	m := RequestMsg{
		Txn: TxnID{Site: 1, Seq: 2}, Protocol: TO, Kind: OpRead,
		Copy: CopyID{Item: 3, Site: 4}, TS: 5,
	}
	if s := m.String(); s == "" {
		t.Fatal("empty RequestMsg string")
	}
}
