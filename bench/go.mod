module ovlp/bench

go 1.22

require ovlp v0.0.0

replace ovlp => ../
