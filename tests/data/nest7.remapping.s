func nest7(r9):
entry:
    setlr 8
    li r8, 1
    li r10, 0
    li r5, 0
    setlr 9
l1:
    li r11, 0
    setlr 9
l2:
    li r0, 0
    setlr 9
l3:
    li r4, 0
    setlr 9
l4:
    li r1, 0
    setlr 9
l5:
    li r2, 0
    setlr 9
l6:
    li r3, 0
    setlr 9
l7:
    add r10, r10, r3
    setlr 10, 2
    xor r10, r10, r11
    add r10, r10, r4
    setlr 10, 2
    sub r10, r10, r2
    setlr 10, 2
    mul r10, r10, r0
    setlr 10, 2
    xor r10, r10, r1
    add r10, r10, r5
    add r3, r3, r8
    blt r3, r9, l7
l6end:
    add r2, r2, r8
    blt r2, r9, l6
l5end:
    add r1, r1, r8
    setlr 9, 1
    blt r1, r9, l5
l4end:
    setlr 4, 2
    add r4, r4, r8
    blt r4, r9, l4
l3end:
    setlr 8, 1
    add r0, r0, r8
    setlr 9, 1
    blt r0, r9, l3
l2end:
    setlr 8, 1
    add r11, r11, r8
    setlr 9, 1
    blt r11, r9, l2
l1end:
    setlr 5
    setlr 5, 2
    add r5, r5, r8
    blt r5, r9, l1
exit:
    ret r10
